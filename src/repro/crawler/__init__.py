"""The measurement crawler (Figure 1, module 2).

* :mod:`repro.crawler.extractor` — HTML extraction for all marketplace
  page themes plus the underground forum pages;
* :mod:`repro.crawler.crawler` — the depth-first marketplace crawler and
  the multi-iteration scheduler behind Figure 2;
* :mod:`repro.crawler.profile_collector` — platform-API collection of
  profile metadata and timelines for visible accounts;
* :mod:`repro.crawler.underground_collector` — the manual-protocol
  collector for Tor forums (register, solve CAPTCHA, first five pages,
  at most 25 postings per platform).
"""

from repro.crawler.checkpoints import CrawlCheckpoint
from repro.crawler.crawler import CrawlReport, IterationCrawl, MarketplaceCrawler
from repro.crawler.extractor import (
    ExtractionError,
    extract_listing_index,
    extract_offer,
    extract_payment_methods,
    extract_seller,
)
from repro.crawler.profile_collector import ProfileCollector
from repro.crawler.underground_collector import UndergroundCollector

__all__ = [
    "CrawlCheckpoint",
    "CrawlReport",
    "ExtractionError",
    "IterationCrawl",
    "MarketplaceCrawler",
    "ProfileCollector",
    "UndergroundCollector",
    "extract_listing_index",
    "extract_offer",
    "extract_payment_methods",
    "extract_seller",
]
