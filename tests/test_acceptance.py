"""The nine acceptance criteria, one test each, with a printed pass/fail
line per criterion (run pytest with -s or look at captured output).

Each criterion delegates to the corresponding check in ppcount.verify so
the CLI `ppcount verify` and this suite can never drift apart.
"""

import pytest

from ppcount import arith, counting, verify

CRITERIA = [
    (1, "oracle equivalence, exhaustive to 1e4 and spot 1e5/1e6",
     verify.check_oracle_equivalence),
    (2, "known values C_2(10), C_2(100), C_3(10), psi(10), psi1(10)",
     verify.check_known_values),
    (3, "trapezoid identity on 50 randomized (x, h, delta) triples",
     verify.check_trapezoid_identity),
    (4, "explicit-formula self-consistency at x = 1e4",
     verify.check_explicit_consistency),
    (5, "zero-table gates: RvM drift and reciprocal-sum growth",
     verify.check_zero_table_gates),
    (6, "three-range zero-sum bounds at (1e5, 1e3, 1e2)",
     verify.check_three_range_bounds),
    (7, "normalized-error boundedness on the log grid, k in {2, 3}",
     verify.check_normalized_error),
    (8, "short interval x = 1e12, h = 1e8, k = 2 within 1 percent of the"
        " per-m main term",
     verify.check_short_interval),
    (9, "cstar identity against the weighted brute-force sum",
     verify.check_cstar_identity),
]


@pytest.mark.parametrize("number,description,check", CRITERIA,
                         ids=[f"criterion-{n}" for n, _, _ in CRITERIA])
def test_acceptance_criterion(number, description, check):
    result = check()
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] criterion {number}: {description} "
          f"-- {result.detail} ({result.elapsed_ms:.0f} ms)")
    assert result.passed, f"criterion {number}: {result.detail}"


def test_oracle_equivalence_computes_no_main_term(monkeypatch):
    # criterion 1 compares some 40 000 plain counts; a main term attached
    # to each count would make it 25 times slower
    def refuse(*args):
        raise AssertionError("a main term was computed")

    monkeypatch.setattr(counting, "li", refuse)
    monkeypatch.setattr(counting, "interval_main_term", refuse)
    assert verify.check_oracle_equivalence().passed


def test_oracle_equivalence_reaches_the_lucy_branch(monkeypatch):
    # the spot values 10^5 and 10^6 lie above their minimal base, so
    # criterion 1 checks the Lucy recurrence that count uses, k = 2, 3
    his, real = [], arith._lucy_counts

    def recording(hi, *args, **kwargs):
        his.append(hi)
        return real(hi, *args, **kwargs)

    monkeypatch.setattr(arith, "_lucy_counts", recording)
    assert verify.check_oracle_equivalence().passed
    assert sorted(his) == [10 ** 5] * 2 + [10 ** 6] * 2


class TestRunAll:
    def test_presets_run_their_checks_in_order(self, monkeypatch):
        ran = []

        def stub(name):
            def check():
                ran.append(name)
                return verify.CheckResult(name, True, "stub")
            return check

        names = [c.__name__ for c in verify.SMALL_CHECKS]
        monkeypatch.setattr(verify, "SMALL_CHECKS",
                            tuple(stub(n) for n in names))
        monkeypatch.setattr(verify, "check_short_interval",
                            stub("check_short_interval"))
        assert [r.name for r in verify.run_all("small")] == names
        assert ran == names
        ran.clear()
        medium = names + ["check_short_interval"]
        assert [r.name for r in verify.run_all("medium")] == medium
        assert ran == medium
        with pytest.raises(ValueError, match="large"):
            verify.run_all("large")

    def test_presets_cover_the_criteria(self):
        # ppcount verify --scale medium runs exactly this suite's checks
        checks = list(verify.SMALL_CHECKS) + [verify.check_short_interval]
        assert len(set(checks)) == len(checks) == len(CRITERIA) == 9
        assert set(checks) == {check for _, _, check in CRITERIA}
