#!/usr/bin/env python3
"""Scam post analysis: the Section-6 pipeline, with cluster introspection.

Runs the full NLP pipeline (language filter -> embeddings -> clustering
-> c-TF-IDF keywords -> codebook vetting) over the collected posts, then
prints Table 5, Table 6, and the per-cluster verdicts with their top
keywords — the artifact a human analyst would review.

Usage::

    python examples/scam_cluster_analysis.py [--scale 0.05] [--seed 7] [--show-clusters 12]
"""

import argparse

from repro import Study, StudyConfig
from repro.analysis import InfrastructureAnalysis, ScamPostAnalysis
from repro.core import reports


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--show-clusters", type=int, default=12,
                        help="how many vetted clusters to print")
    args = parser.parse_args()

    result = Study(StudyConfig(seed=args.seed, scale=args.scale, iterations=4)).run()
    analysis = ScamPostAnalysis()
    report = analysis.run(result.dataset)

    print(f"Posts collected: {report.posts_considered}")
    print(f"  English after language filter: {report.posts_english} "
          f"({100 * report.posts_english / max(1, report.posts_considered):.0f}%)")
    print(f"Raw topic clusters: {report.n_clusters} (paper: 86); "
          f"noise points: {report.n_noise}")
    print(f"Clusters vetted as scam: {report.scam_clusters} (paper: 16)")
    print()
    print(reports.render_table5(report, args.scale))
    print()
    print(reports.render_table6(report, args.scale))
    print()

    print(f"Largest vetted clusters (showing {args.show_clusters}):")
    shown = sorted(report.verdicts, key=lambda v: -v.size)[: args.show_clusters]
    for verdict in shown:
        label = verdict.subtype or "benign"
        keywords = ", ".join(term for term, _score in verdict.keywords[:6])
        print(f"  cluster {verdict.cluster_id:>4}  size {verdict.size:>5}  "
              f"{label:<45} score {verdict.match_score:.2f}  [{keywords}]")

    infrastructure = InfrastructureAnalysis().run(result.dataset.posts)
    print()
    print(f"Lure-domain infrastructure: {infrastructure.total_domains} domains "
          f"in {infrastructure.posts_with_domains} posts; "
          f"{len(infrastructure.shared_domains)} shared across 3+ accounts:")
    for profile in infrastructure.top_domains(5):
        print(f"  {profile.domain:<30} {profile.posts:>5} posts  "
              f"{profile.accounts:>4} accounts  platforms: "
              f"{', '.join(profile.platforms)}")


if __name__ == "__main__":
    main()
