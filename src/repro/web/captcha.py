"""CAPTCHA gates, as found on the underground forums.

The paper reports that every underground market "implemented complex,
site-specific, non-standard CAPTCHAs", which is why that data was collected
manually.  We model the gate faithfully: a challenge the automated crawler
*cannot* answer (and, per the ethics statement, would not try to bypass),
and a :class:`HumanSolver` that represents the researcher solving it by
hand at a bounded, human pace.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict

from repro.util.rng import RngTree


@dataclass(frozen=True)
class Challenge:
    """One issued CAPTCHA challenge.

    ``answer`` stays server-side (inside the gate); clients only ever see
    ``challenge_id`` and ``prompt``.
    """

    challenge_id: str
    prompt: str
    answer: str


class CaptchaGate:
    """Issues arithmetic challenges and verifies answers."""

    def __init__(self, rng: RngTree) -> None:
        self._rng = rng
        self._issued: Dict[str, str] = {}
        self._counter = 0

    def issue(self) -> Challenge:
        self._counter += 1
        challenge_id = f"c{self._counter:06d}"
        a = self._rng.randint(2, 19)
        b = self._rng.randint(2, 19)
        prompt = f"What is {a} plus {b}?"
        answer = str(a + b)
        self._issued[challenge_id] = answer
        return Challenge(challenge_id=challenge_id, prompt=prompt, answer=answer)

    def verify(self, challenge_id: str, answer: str) -> bool:
        """Check an answer; challenges are single-use."""
        expected = self._issued.pop(challenge_id, None)
        return expected is not None and answer.strip().lower() == expected.lower()

    @property
    def outstanding(self) -> int:
        return len(self._issued)


class HumanSolver:
    """A researcher solving CAPTCHAs by hand, *from the prompt text only*.

    Solves correctly with high (not perfect) probability and takes tens of
    simulated seconds per challenge — which is what bounds the underground
    collection to a manual protocol.  Never sees server-side state.
    """

    _ARITHMETIC = re.compile(r"What is (\d+) plus (\d+)\?")

    def __init__(self, rng: RngTree, accuracy: float = 0.96) -> None:
        if not 0 < accuracy <= 1:
            raise ValueError("accuracy must be in (0, 1]")
        self._rng = rng
        self.accuracy = accuracy

    def solve(self, prompt: str) -> str:
        """Work out the answer from the prompt, with human error."""
        answer = self._read(prompt)
        if self._rng.bernoulli(self.accuracy):
            return answer
        return answer + "x"  # a typo

    def _read(self, prompt: str) -> str:
        match = self._ARITHMETIC.search(prompt)
        if match:
            return str(int(match.group(1)) + int(match.group(2)))
        return "unknown"


__all__ = ["CaptchaGate", "Challenge", "HumanSolver"]
