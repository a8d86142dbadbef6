#!/usr/bin/env python3
"""Analyze the builtin fixtures and write their JSON reports.

The z-manifold fan lives in dimension six; its subdivision is skipped unless
--full is given (everything else runs for all four fixtures).
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
    parser.add_argument("--full", action="store_true",
                        help="include the z-manifold fan computation")
    args = parser.parse_args()

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in FIXTURE_NAMES:
        vt = fixture(name)
        sections = ["validation", "conditions", "groups", "grading", "bside",
                    "algebra"]
        if name != "z-manifold" or args.full:
            sections.append("fans")
        report = build_report(vt, tuple(sections), algebra_cutoff=args.cutoff)
        path = out_dir / f"{name}.json"
        with path.open("w") as fh:
            write_json(report, fh)
        summary = report["sections"]
        line = (f"{name}: |Xi0|={summary['validation']['xi0_count']}"
                f" G={summary['groups']['G']} Gamma={summary['groups']['Gamma']}")
        if "fans" in summary:
            line += (f" cells={summary['fans']['cell_count']}"
                     f" mpcp={summary['fans']['conditions']['mpcp']}")
        print(line)
    print(f"reports written to {out_dir}/")


if __name__ == "__main__":
    main()
