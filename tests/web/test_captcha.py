"""Tests for the CAPTCHA gate and the human solver."""

import pytest

from repro.util.rng import RngTree
from repro.web.captcha import CaptchaGate, HumanSolver


class TestCaptchaGate:
    def test_arithmetic_challenge_verifies(self):
        gate = CaptchaGate(RngTree(1))
        challenge = gate.issue()
        assert gate.verify(challenge.challenge_id, challenge.answer)

    def test_wrong_answer_fails(self):
        gate = CaptchaGate(RngTree(2))
        challenge = gate.issue()
        assert not gate.verify(challenge.challenge_id, "nope")

    def test_challenges_are_single_use(self):
        gate = CaptchaGate(RngTree(3))
        challenge = gate.issue()
        assert gate.verify(challenge.challenge_id, challenge.answer)
        assert not gate.verify(challenge.challenge_id, challenge.answer)

    def test_unknown_challenge_id_fails(self):
        gate = CaptchaGate(RngTree(4))
        assert not gate.verify("bogus", "42")

    def test_answer_comparison_is_forgiving(self):
        gate = CaptchaGate(RngTree(6))
        challenge = gate.issue()
        assert gate.verify(challenge.challenge_id, f"  {challenge.answer}  ")

    def test_outstanding_counts(self):
        gate = CaptchaGate(RngTree(7))
        gate.issue()
        gate.issue()
        assert gate.outstanding == 2


class TestHumanSolver:
    def test_solves_arithmetic_from_prompt_alone(self):
        solver = HumanSolver(RngTree(8), accuracy=1.0)
        assert solver.solve("What is 7 plus 12?") == "19"

    def test_gate_accepts_solver_answers(self):
        gate = CaptchaGate(RngTree(10))
        solver = HumanSolver(RngTree(11), accuracy=1.0)
        for _ in range(10):
            challenge = gate.issue()
            assert gate.verify(challenge.challenge_id, solver.solve(challenge.prompt))

    def test_imperfect_accuracy_sometimes_fails(self):
        gate = CaptchaGate(RngTree(12))
        solver = HumanSolver(RngTree(13), accuracy=0.5)
        results = []
        for _ in range(60):
            challenge = gate.issue()
            results.append(gate.verify(challenge.challenge_id, solver.solve(challenge.prompt)))
        assert any(results) and not all(results)

    def test_unreadable_prompt_gives_unknown(self):
        solver = HumanSolver(RngTree(14), accuracy=1.0)
        assert solver.solve("scribble scribble") == "unknown"

    def test_invalid_accuracy_rejected(self):
        with pytest.raises(ValueError):
            HumanSolver(RngTree(1), accuracy=0.0)
