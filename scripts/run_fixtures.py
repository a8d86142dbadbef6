#!/usr/bin/env python3
"""Analyze the builtin fixtures and write their JSON reports.

Every section runs for all four fixtures, the fans with uniform weights.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from mirrorcone.fixtures import FIXTURE_NAMES, fixture
from mirrorcone.report import build_report, write_json


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out-dir", default="reports")
    parser.add_argument("--cutoff", type=int, default=5)
    args = parser.parse_args()

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sections = ("validation", "conditions", "groups", "grading", "bside",
                "algebra", "fans")
    for name in FIXTURE_NAMES:
        report = build_report(fixture(name), sections, algebra_cutoff=args.cutoff)
        path = out_dir / f"{name}.json"
        with path.open("w") as fh:
            write_json(report, fh)
        summary = report["sections"]
        print(f"{name}: |Xi0|={summary['validation']['xi0_count']}"
              f" G={summary['groups']['G']} Gamma={summary['groups']['Gamma']}"
              f" cells={summary['fans']['cell_count']}"
              f" mpcp={summary['fans']['conditions']['mpcp']}")
    print(f"reports written to {out_dir}/")


if __name__ == "__main__":
    main()
