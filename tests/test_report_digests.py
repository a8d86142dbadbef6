"""The fixture reports of the benchmark's fixture workloads, byte for byte.

Each report is built in process with ``build_report`` and ``write_json`` and
its sha256 compared with the digest recorded in ``perfbench/digests.json``,
which this test only reads.  A change that alters a report by one byte fails
here, as it would fail the benchmark's correctness check.
"""

import hashlib
import io
import json
from pathlib import Path

import pytest

from mirrorcone.fixtures import FIXTURE_NAMES, fixture
from mirrorcone.report import build_report, write_json

DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"
BSIDE = ("validation", "conditions", "groups", "grading", "bside")

# workload -> (sections, --cutoff), as the workloads run `analyze`
WORKLOADS = {
    "fixtures-uniform": (BSIDE + ("fans", "algebra"), 5),
    "bside-algebra": (BSIDE + ("algebra",), 6),
}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_report_matches_its_recorded_digest(workload, name):
    sections, cutoff = WORKLOADS[workload]
    buf = io.StringIO()
    write_json(build_report(fixture(name), sections, algebra_cutoff=cutoff), buf)
    recorded = json.loads(DIGESTS.read_text())[f"{workload}:{name}"]
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == recorded
