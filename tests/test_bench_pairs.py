"""scripts/bench_pairs.py's summary of alternating benchmark pairs, on
fixed numbers: no benchmark runs."""

import importlib.util
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ok_frac", "unit": "ratio", "better": "higher", "bound": 0.01},
]


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_summary_counts_wins_quartiles_and_the_bound():
    """wall_s: the change wins pair 1, ties pair 2 (no side's win) and loses
    the rest; its median 4 is worse than 3 by more than 0.25 x 3. ok_frac:
    one win and one loss, equal medians, within the bound."""
    script = load_script()
    base = [{"wall_s": w, "ok_frac": f}
            for w, f in zip([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 0.5, 1.0, 1.0, 1.0])]
    here = [{"wall_s": w, "ok_frac": f}
            for w, f in zip([0.5, 2.0, 4.0, 4.5, 6.0], [1.0, 1.0, 0.5, 1.0, 1.0])]
    wall, ok = script.summarize(METRICS, base, here)
    assert wall == {"name": "wall_s", "unit": "s", "bound": 0.25, "pairs": 5,
                    "base": (3.0, 2.0, 4.0), "here": (4.0, 2.0, 4.5),
                    "won": 1, "median_change": 1.0 / 3.0, "beyond_bound": True}
    assert ok == {"name": "ok_frac", "unit": "ratio", "bound": 0.01, "pairs": 5,
                  "base": (1.0, 1.0, 1.0), "here": (1.0, 1.0, 1.0),
                  "won": 1, "median_change": 0.0, "beyond_bound": False}
    assert script.report([wall, ok]).splitlines() == [
        "wall_s (s): base 3 [2, 4], change 4 [2, 4.5]; change won 1/5, median +33.3%; "
        "WORSE than the 0.25 bound",
        "ok_frac (ratio): base 1 [1, 1], change 1 [1, 1]; change won 1/5, median +0.0%; "
        "within the 0.01 bound",
    ]


def test_a_worse_median_within_the_bound_is_not_flagged():
    """A lower-is-better median 20% above the base's is inside a 25% bound;
    a higher-is-better one 2% below is outside a 1% bound."""
    script = load_script()
    base = [{"wall_s": 1.0, "ok_frac": 1.0}] * 3
    here = [{"wall_s": 1.2, "ok_frac": 0.98}] * 3
    wall, ok = script.summarize(METRICS, base, here)
    assert (wall["won"], wall["beyond_bound"]) == (0, False)
    assert (ok["won"], ok["beyond_bound"]) == (0, True)


def test_median_change_is_signed_and_relative_to_the_base():
    """A wall_s median of 0.75 against 1.0 is -25%; an ok_frac median of 0.5
    against a negative base -1.0 is +150% (the base's magnitude divides);
    a base median of 0 has no relative change."""
    script = load_script()
    base = [{"wall_s": 1.0, "ok_frac": -1.0}] * 3
    here = [{"wall_s": 0.75, "ok_frac": 0.5}] * 3
    wall, ok = script.summarize(METRICS, base, here)
    assert (wall["median_change"], ok["median_change"]) == (-0.25, 1.5)
    assert "change won 3/3, median -25.0%;" in script.report([wall])
    assert "change won 3/3, median +150.0%;" in script.report([ok])
    zero, _ = script.summarize(METRICS, [{"wall_s": 0.0, "ok_frac": 1.0}] * 3, here)
    assert np.isnan(zero["median_change"])
