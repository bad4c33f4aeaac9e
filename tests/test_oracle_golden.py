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
    (1, 5, "-10:10", (), 0, "cae1e6a9ed94c8615b5f30fbc1984ab5ed6d4f277883dcf8aa7a2e08870173a6"),
    (1, 1, "-30:7", (), 0, "267fd5292e9c88df07ec0e44d6d60230ee6027d6c8a5e7ad8d9bf09d8aba680c"),
    (2, 3, "-6:20", (), 0, "9420171ae827e1adacac4906712176c818bff20fb9498fe342d74617c9589c8f"),
    (2, 7, "-25:25", (), 0, "3c239c7a7665c86785294cbaf95cf538a0ae28e390fc6b5828d3dd4207afd8f5"),
    (2, 9, "-300:300", (), 0, "564e2f3c39b86001bfb77f4ff7ef646aa530020a20df0c175b6219d0500c9cab"),
    (3, 5, "0:12", (), 0, "90d1715b96a7721fa94c04ee3183cb6ca98a31214acff427d79b6964be68c955"),
    (3, 11, "-40:3", (), 0, "b28bd46bf4db69bd6031cca47ed4019b95ef4f95e85926dc9fcde53c9538f955"),
    (1, 5, "-10:10", ("C5",), 3, "0f1633d1c589e1e7087516a40fa2af000d595827f16142c8740092de2a1401c6"),
    (1, 5, "-10:10", ("C1",), 3, "e5cd7cad65ce598b3e5ad285b4fdbba559ceff4bfdcf7c1d27890f9fec4a5c6b"),
    (1, 5, "-10:10", ("C2",), 3, "6218e7f252d01f7da82147332b13f18253a193718c914e17e457661087854c2d"),
    (1, 7, "-30:30", ("C3",), 3, "876e838d79450def788ebfd693a04c21eb32a0c29341091efc4be9f8ec00e23f"),
    (2, 5, "-20:20", ("C4",), 3, "29c8dc6a7c8604a525b2355aa05443dba630b3337b2b5b734a8b39651c8472a1"),
    (2, 5, "-20:20", ("C6",), 3, "37e864ea9eee0cb353ebbade7b35efdb0a19ebc8220637483935ff1979162917"),
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
