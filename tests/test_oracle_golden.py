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
    (1, 5, "-10:10", (), 0, "e19fa1669466d5ab1e1f4fd6e90817816463fcab5ce841cd269217cb62a58dcc"),
    (1, 1, "-30:7", (), 0, "b36df016748299808a05f9aadcd6ef887fbf91d52904a29c66751f697584a9a7"),
    (2, 3, "-6:20", (), 0, "a20681329d62c67da69f2ae3c00707a3874729da9fecf4dfbca560f65d93a653"),
    (2, 7, "-25:25", (), 0, "b01c4f226805c97f829133ed41cde0c55b882463bd905aa13d14bcf95289ad60"),
    (2, 9, "-300:300", (), 0, "46ae5d6275f4257c1fcf42d3bc44e679976e17ec0cc4253cbd39d4f933a20a0c"),
    (3, 5, "0:12", (), 0, "85b86974ecba0eeb14092209c7ff1cdf8f50a58159d13d8ec77120d57b5a7052"),
    (3, 11, "-40:3", (), 0, "410bb6a7260fa24c7174606ec546f0c3088063c647332149cbd025002018bca1"),
    (1, 5, "-10:10", ("C5",), 3, "40df669379c809f552f819da6a2b498b305c7de30b9fcc3314c8a78aee303cca"),
    (1, 5, "-10:10", ("C1",), 3, "553c3fb4c099252ffd6d1b5a97b795bde24de115c22a6bbf710787b1b2739177"),
    (1, 5, "-10:10", ("C2",), 3, "4e5cdada675c18cb5956db1e364e876cff49642c9e6bfce19835daa87273238f"),
    (1, 7, "-30:30", ("C3",), 3, "876e838d79450def788ebfd693a04c21eb32a0c29341091efc4be9f8ec00e23f"),
    (2, 5, "-20:20", ("C4",), 3, "9e131351f55b023703ac952a886aa81fd15b37562e1095aefb9d0b9622d6e6a7"),
    (2, 5, "-20:20", ("C6",), 3, "dfd2fe86307ae8c083dc9ff4f9234637e239de6da081d83909defa01e5092002"),
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
