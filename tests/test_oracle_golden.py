"""Golden digests of `isurg --format json oracle ... --trace`.

Each case pins the sha256 of the whole stdout: results, the order and content
of every trace entry, and for the cases with a dropped constraint the error
report.  They cover ranges with a low end <= 0, where changes to how the
solver schedules its work, or to which bound updates it calls, must leave
the output byte-identical.  With a constraint dropped, the others make
tightenings that it would otherwise make first, so those cases also pin
bound updates that the full system never traces.
"""

import hashlib

import pytest

from isurg import cli

GOLDEN = [
    (1, 5, "-10:10", (), 0, "dc28117cc7782b5edc037ac9bbe5605e7bbaeaa0d39589113bd6c31df7e9b05e"),
    (1, 1, "-30:7", (), 0, "3e0aa25965830474fb75929b3a5383decc769e81ca4f2518d6a09503856b7e5d"),
    (2, 3, "-6:20", (), 0, "0673ae7a9280f4836600fe35fb29cdfdb3cdc552cef754dc5dfb2c4ae20a3b9f"),
    (2, 7, "-25:25", (), 0, "ab2c4ddbba74ee391286cb2459ff09300a22ab3c8c53953322c4ed087dee5817"),
    (2, 9, "-300:300", (), 0, "cc5815d99fb1ae6f077e3f94812b6ca867d490856507b02d727573405acdd4c2"),
    (3, 5, "0:12", (), 0, "be3fd250d043980cd7d16404b72ff6150ab7cf12c61b353102fa63c583b74760"),
    (3, 11, "-40:3", (), 0, "e5ee3b9775c4e5ea75892be19c997e1b4ec9c876fbe5ef87e17c326dd61749c9"),
    (1, 5, "-10:10", ("C5",), 3, "097645811e957a2d6ef35ef9bc82430330faf4cf974dbe3c4758b50a760bb47f"),
    (1, 5, "-10:10", ("C1",), 3, "e5cd7cad65ce598b3e5ad285b4fdbba559ceff4bfdcf7c1d27890f9fec4a5c6b"),
    (1, 5, "-10:10", ("C2",), 3, "68148fb25a17e1aba93c049876a47ca4f9d0f5125191d4450a21177586ef45ee"),
    (1, 7, "-30:30", ("C3",), 3, "fe0006a15b0c0bc041def177e3ff93e8c85b3061add9a124324ca5fc04355f85"),
    (2, 5, "-20:20", ("C4",), 3, "c673c0576f14d5a8b3b15119d8b9a9bd3ab6bfa892068cdf0c6bee1bd5fa1888"),
    (2, 5, "-20:20", ("C6",), 3, "c3e1f42048e893730b814b41be61712b7ad9843a0817daf63f3c0cd4728bdff3"),
]


@pytest.mark.parametrize("g, m, slope_range, drop, code, digest", GOLDEN)
def test_oracle_trace_output_is_pinned(capsys, g, m, slope_range, drop, code, digest):
    argv = ["--format", "json", "oracle", "--genus", str(g), "--lspace-slope", str(m),
            "--range", slope_range, "--trace"]
    for cname in drop:
        argv += ["--drop-constraint", cname]
    assert cli.main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
