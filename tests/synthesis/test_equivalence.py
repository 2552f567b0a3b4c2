"""Oracle × strategy differential equivalence against the paper's path.

Two properties anchor the engine to the paper's algorithm:

* **Verdict identity** — the ``dd`` oracle, with extremal or arbitrary
  counterexamples, is verdict-identical to the paper's ``smt`` ×
  ``extremal`` path on the checked-in corpus: it backs exhaustion with a
  complete SMT check, and its rays come with a vertex as the SMT
  oracle's do.
* **Soundness under ablation** — arbitrary counterexamples on the SMT
  oracle are the paper's §4.2 ablation: they are *expected* to cost more
  iterations and may conclude differently (an arbitrary counterexample
  can escape a dead end the extremal heuristic walks into, and
  conversely can exhaust the budget).  Whenever they do diverge, the
  divergence must be sound: every extra ``TERMINATING`` verdict carries a
  ranking the independent Farkas checker validates, and a lost verdict
  is only ever ``UNKNOWN``, never a wrong claim.

A seeded fuzz campaign over all four combinations closes the loop: zero
soundness violations tolerated.
"""

import itertools

import pytest

from repro.api import Analysis, AnalysisConfig
from repro.checking.checker import CertificateVerdict, check_ranking
from repro.checking.corpus import load_corpus
from repro.checking.differential import default_fuzz_config, fuzz

CORPUS = load_corpus("tests/corpus")

#: Combinations that must be verdict-identical to the paper's path.
IDENTICAL_COMBOS = [("dd", "extremal"), ("dd", "arbitrary")]

#: The §4.2 ablation: may diverge, but only soundly.
ABLATION_COMBOS = [("smt", "arbitrary")]

BASE_CONFIG = AnalysisConfig(
    check_certificates=False, max_iterations=200, max_dimension=4
)


def run_corpus(config):
    """{program: (status, ranking, problem)} over the checked-in corpus."""
    outcomes = {}
    for entry in CORPUS:
        analysis = Analysis(entry.source, config=config, name=entry.name)
        problem = analysis.problem()
        result = analysis.run("termite")
        outcomes[entry.name] = (result.status.value, result.ranking, problem)
    return outcomes


@pytest.fixture(scope="module")
def baseline():
    """The paper's path: SMT oracle, extremal counterexamples."""
    return run_corpus(BASE_CONFIG)


class TestVerdictIdentity:
    @pytest.mark.parametrize("oracle,strategy", IDENTICAL_COMBOS)
    def test_combo_matches_seed_extremal_path(self, baseline, oracle, strategy):
        config = BASE_CONFIG.replace(cex_oracle=oracle, cex_strategy=strategy)
        for name, (status, _, _) in run_corpus(config).items():
            assert status == baseline[name][0], (
                "%s: %s/%s gave %s, the smt/extremal path gave %s"
                % (name, oracle, strategy, status, baseline[name][0])
            )


class TestAblationSoundness:
    @pytest.mark.parametrize("oracle,strategy", ABLATION_COMBOS)
    def test_divergence_is_only_ever_sound(self, baseline, oracle, strategy):
        config = BASE_CONFIG.replace(cex_oracle=oracle, cex_strategy=strategy)
        for name, (status, ranking, problem) in run_corpus(config).items():
            base_status = baseline[name][0]
            if status == base_status:
                continue
            # Divergences must stay within {unknown, terminating} and a
            # new TERMINATING claim must carry an independently valid
            # certificate — the ablation may cost or gain power, it must
            # never lie.
            assert {status, base_status} <= {"unknown", "terminating"}, (
                "%s: unexpected divergence %s vs %s"
                % (name, status, base_status)
            )
            if status == "terminating":
                assert ranking is not None
                verdict = check_ranking(problem, ranking)
                assert verdict.status == CertificateVerdict.VALID, (
                    "%s: %s/%s proof rejected by the independent checker"
                    % (name, oracle, strategy)
                )


class TestFuzzSeedZero:
    @pytest.mark.parametrize(
        "oracle,strategy",
        list(itertools.product(("smt", "dd"), ("extremal", "arbitrary"))),
    )
    def test_no_soundness_violations(self, oracle, strategy):
        config = default_fuzz_config().replace(
            cex_oracle=oracle, cex_strategy=strategy
        )
        report = fuzz(
            seed=0, count=20, tools=["termite"], config=config, shrink=False
        )
        assert report.ok, "violations: %r, build errors: %r" % (
            report.violations,
            report.build_errors,
        )
        assert not report.violations
