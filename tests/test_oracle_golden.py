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
    (1, 5, "-10:10", (), 0, "ba2c5a1979e120ab65d2ebb33c86c8db81dc9bdf851deca4ea55a6580db2690f"),
    (1, 1, "-30:7", (), 0, "94be369f5bc5645847e2cc30185abd2195cd31434442a77c2b7bc3d07ed1c30b"),
    (2, 3, "-6:20", (), 0, "90998025c75c1d38f0b8200181b6b13d5f42a0c96795c2a3bd8dfec2e5209b0f"),
    (2, 7, "-25:25", (), 0, "c79f24974ddfe93228afb3ef3ed36852f07d22eb59a0193d50ec510c9d9daba7"),
    (2, 9, "-300:300", (), 0, "45999fd175eddc11da6d25aa945b61a30014ceb0b4a88f871121083ccfc3dfcb"),
    (3, 5, "0:12", (), 0, "e338ba9ebf280f72b0d75fd2daf7e76038affcecb19af7f8c29e055d47abca59"),
    (3, 11, "-40:3", (), 0, "f99d92944f16ad4eab1138649f806f7e5e63ffd2eda5752d59ff2aeac2a0fd27"),
    (1, 5, "-10:10", ("C5",), 3, "c767e407cb7a303dcccde597323c611d996296eace6ef65aacf61bdba94da7fa"),
    (1, 5, "-10:10", ("C1",), 3, "b0a75b2937a1b3da02d83165dcd8048af044fe96e1ef8bae41c2d9f9d66d91ab"),
    (1, 5, "-10:10", ("C2",), 3, "4332e270f54525e24b35883bb86d97b883a60abf5bfb650b416ebbe211967a0f"),
    (1, 7, "-30:30", ("C3",), 3, "02abf7885d0e1a895a10b83e84ed2b0b35ef548dd96ad61762ccf50aecf63fee"),
    (2, 5, "-20:20", ("C4",), 3, "bce8f183eecaa06fa8d968c59f05b54eabcdc11dafe63819812ef7a67c584517"),
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
