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
    (1, 5, "-10:10", (), 0, "6cd9bfc7ee4695dfc3ff9294c6ddb712e33fd3b1ff7f776aebbffbce9c77d7fe"),
    (1, 1, "-30:7", (), 0, "4dd1355898d4e92837933d0c12e2e66bb03130a8b751b5caa2c0c753eedb6e3e"),
    (2, 3, "-6:20", (), 0, "20edac9a071da4c22ce6079496fda80f5c03e873e05b3ccfc840f83e5676b5bd"),
    (2, 7, "-25:25", (), 0, "21d22a0c83a14e8f760646361b09f7d614c4662bc43f15d318a27db90c1237e1"),
    (2, 9, "-300:300", (), 0, "c59b779aaeb8461bb8828e353675864c232575a28327bd5836db5920cd8e3dce"),
    (3, 5, "0:12", (), 0, "4c91a5c913bf0984c2f5d23a344eccc0f69788fe0984976cbda6b778dd1ac5fb"),
    (3, 11, "-40:3", (), 0, "464fcc2b6b325f26244b696218de28e815fdff4cbe53100d441d6e89a46b0ed8"),
    (1, 5, "-10:10", ("C5",), 3, "304a6dc9e67cd635936b9789cc9ddf43d5b91326c58e85d4a46ecb87aa0c1461"),
    (1, 5, "-10:10", ("C1",), 3, "0cc1bd27a6fdc0e0c12bcbac7959e9e447e415adf6ff9995d8943667030640b7"),
    (1, 5, "-10:10", ("C2",), 3, "f4092600356a5e5236a21af70eb967e676cf8198212256a0f3fc63b01f3eca23"),
    (1, 7, "-30:30", ("C3",), 3, "813a66b166ad3bda6e031a05b5296d843c1d7b7b4a961c6fec38be70cb5c7891"),
    (2, 5, "-20:20", ("C4",), 3, "dcac972ac94d91bec8b432e4d98cbc652c6b3e4d0c248c6153bf4e6987e25b7f"),
    (2, 5, "-20:20", ("C6",), 3, "6dfb6780487be40bf61c4962dd50e9bdd00173dfed4e4f9e9e68982c5ae8ee7f"),
]


# Ids name the request (g-m-range-drops), not the digest, so a re-pin keeps them.
@pytest.mark.parametrize("g, m, slope_range, drop, code, digest", GOLDEN,
                         ids=[f"{g}-{m}-{r}-{'-'.join(d) or 'none'}" for g, m, r, d, _, _ in GOLDEN])
def test_oracle_trace_output_is_pinned(capsys, g, m, slope_range, drop, code, digest):
    argv = ["--format", "json", "oracle", "--genus", str(g), "--lspace-slope", str(m),
            "--range", slope_range, "--trace"]
    for cname in drop:
        argv += ["--drop-constraint", cname]
    assert cli.main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
