#!/usr/bin/env python3
"""Noise-level sweep reproducing the convergence-rate experiment.

Runs the sweep over delta = 1e-2 .. 1e-5 for both a-priori parameter
choices, prints the median error table, fits the log-log rates, and writes
CSV plus plot-ready series to ./study_output/.  Expected rates: err0 decays
like delta^(1/2) for alpha = delta^2 and like delta^(3/5) for
alpha = 0.1 delta^(8/5), while err1 stays roughly level under the first
rule.
"""

from pathlib import Path

import difflaw as dl

OUT = Path("study_output")
OUT.mkdir(exist_ok=True)
DELTAS = (1e-2, 1e-3, 1e-4, 1e-5)

for rule in ("quadratic", "eight_fifths"):
    config = dl.StudyConfig(delta_list=DELTAS, alpha_rule=rule, trials=10, base_seed=0)
    records = dl.run_study(config)

    print(f"\n=== alpha rule: {rule} ===")
    print("delta      median err0   median err1   median res")
    err0, err1, res = (dl.median_by_delta(records, c) for c in ("err0", "err1", "residual"))
    for delta in err0:
        print(f"{delta:<10g} {err0[delta]:<13.6f} {err1[delta]:<13.6f} {res[delta]:.6f}")
    for column in ("err0", "err1", "residual"):
        print(f"slope of median {column}: {dl.fit_rate(records, column):+.3f}")

    dl.emit_csv(records, OUT / f"records_{rule}.csv")
    series, refs = dl.emit_plot_data(records, OUT / f"study_{rule}", dl.RATE_LINES[rule])
    print(f"wrote {series} and {refs}")

print(f"\nplot-ready log-log series are in {OUT}/ (medians, min/max bands,")
print("and reference-slope lines anchored at the largest noise level)")
