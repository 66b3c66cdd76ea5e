"""The README's 64-seed ablation table against bench/golden.json.

Trains nothing: it recomputes each recorded arm's mean mIoU and its
count of seeds below 0.8 mIoU from the committed golden file.
"""

import json
import statistics
from pathlib import Path

from conftest import readme_table

ROOT = Path(__file__).resolve().parent.parent
HEADER = "| arm | mean mIoU, seeds 0-63 | seeds with mIoU < 0.8 |"
# README arm -> golden.json workload; fusion only is not recorded there
RECORDED = {
    "direct add (no update)": "ref-direct",
    "fusion + reliability": "ref-full",
    "eight update steps": "ref-steps8",
}
SEEDS = range(64)


def test_readme_64_seed_table_matches_golden_json():
    golden = json.loads((ROOT / "bench" / "golden.json").read_text(encoding="utf-8"))
    rows = readme_table(HEADER)
    assert set(RECORDED) < set(rows), sorted(rows)
    for arm, workload in RECORDED.items():
        miou = [golden["workloads"][workload][str(s)]["miou"][0] for s in SEEDS]
        low = sum(m < 0.8 for m in miou)
        want = [f"{statistics.fmean(miou):.4f}", f"{low}/{len(miou)}"]
        assert rows[arm] == want, (arm, rows[arm], want)
