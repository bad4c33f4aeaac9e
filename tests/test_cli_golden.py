"""Golden digests of the CLI's output in every format.

Each case pins the sha256 of stdout and stderr together with the exit code:
bulk `dims` rows, a torus knot's Z/4 row, the catalog-warning path, list
and None cells, every regime of the triangle degrees (n >= 2 even, n >= 1
odd, 0, -1, n <= -2 even, n <= -3 odd), the trefoil family, trace lines
and JSON trace entries, the exit-3 error report (whose "dropped"
lists a repeated --drop-constraint once, as the success record does) and a
usage error.  Changes to how records are formatted must leave all of them
byte-identical.
"""

import hashlib
import json

import pytest

from isurg import cli

FORMATS = ("table", "tsv", "json")

# A catalog entry without lens_surgery, so --z4 takes the warning path.
CATALOG = {"knots": [{"name": "K2", "genus": 2, "max_self_linking": 3}]}

CASES = {
    "dims": ["dims", "--genus", "2", "--range", "-300:300", "--z4"],
    "warning": ["dims", "--knot", "K2", "--range", "-5:5", "--z4", "--catalog", "{catalog}"],
    "torus": ["dims", "--knot", "torus:2,3", "--n", "-1", "--z4"],
    "triangle": ["triangle", "--n", "7"],
    "triangle_even_pos": ["triangle", "--n", "4"],
    "triangle_zero": ["triangle", "--n", "0"],
    "triangle_minus_one": ["triangle", "--n", "-1"],
    "triangle_even_neg": ["triangle", "--n", "-2"],
    "triangle_odd_neg": ["triangle", "--n", "-5"],
    "legendrian": ["legendrian", "--tb", "1", "--rot", "0", "--target-tb", "-3"],
    "planefield": ["planefield", "--chi", "1", "--sigma", "0"],
    "planefield_c1sq": ["planefield", "--chi", "2", "--sigma", "-1", "--c1sq", "-1/2"],
    "trefoil": ["trefoil", "--n", "3"],
    "oracle_trace": ["oracle", "--genus", "1", "--lspace-slope", "5", "--range", "-6:6", "--trace"],
    "oracle_exit3": ["oracle", "--genus", "1", "--lspace-slope", "5", "--range", "-10:10",
                     "--drop-constraint", "C6", "--trace"],
    "oracle_exit3_repeat": ["oracle", "--genus", "2", "--lspace-slope", "6", "--range", "-8:8",
                            "--drop-constraint", "C5", "--drop-constraint", "C5"],
    "usage": ["dims", "--genus", "0", "--n", "1"],
}

GOLDEN = [
    ("dims", "table", 0, "6d08cf628d85ca5353d23025154524c702dfb2c870ed5ab85ad81cd13987b4a1"),
    ("dims", "tsv", 0, "d75caf9e95f622f77961f4088a7a3b4f737a0b6c19267b026c01417a677b3afa"),
    ("dims", "json", 0, "cfb9d5190e274717de8c2d349fdc3e0e32ce577a82389779b25c17d33db32ed7"),
    ("warning", "table", 0, "3996b148d2daf590d9ee86b34ff556f39dcc2b4711d980664b4607bae0020015"),
    ("warning", "tsv", 0, "7bbe8f3f89323eec21155cb87631681e855e0a6b89f0c92ad06d376e276ff156"),
    ("warning", "json", 0, "c0b5a44244fa39ce7d63006a777b9c76ffefa4f0e8f0171943ab0615a6d27a70"),
    ("torus", "table", 0, "3c27bf9ffdfbb9c1ac783e078070f4a410abfb43f69a165f6815cf88099b0bed"),
    ("triangle", "table", 0, "f88d7dbce241221679af804914376b30a162363ab8f2a7a3be2db3f776c3e44e"),
    ("triangle", "tsv", 0, "0d046ef75d7508c5b1ab5cd48532bbb443d7334cedd8a276ea5d191995811d3b"),
    ("triangle", "json", 0, "2e70cbfc762f26f85e0d14bc5c7cd08b1e5242808806e478f0e58c0b5456206f"),
    ("triangle_even_pos", "table", 0, "9e52e10f5cedb635f62c067904a250aa804ca2ff973b50f33220c5387cdc7bee"),
    ("triangle_zero", "table", 0, "7eca1e6441ac2c5638c427ba26469f855dd01a6e0af17eefbc3fce089a65d68e"),
    ("triangle_minus_one", "table", 0, "fc808adbc67bcc3ad3cfc46dfd4b47efe00a5846c422deb2e106ba08aca36756"),
    ("triangle_even_neg", "table", 0, "9f49da3a2644bb7dd643039fa3ca3893ff006c15c192bb68ad5c7eb7b29786e5"),
    ("triangle_odd_neg", "table", 0, "cdaaa86132ad7ce18aab3c2a6c6efa15abf23dfa8bc60ebdfffb08b4cce3a39d"),
    ("legendrian", "table", 0, "be92e2e021c49d67e1ac06b2fee1e33463a6613c3c5a48a79d7d5dfbc40fe478"),
    ("legendrian", "tsv", 0, "fdb065684db5969cfb84c046ae530a2ea154239b292d7440c5065c2616430519"),
    ("legendrian", "json", 0, "11891d79294a3e09001aae2327abcc4dc3c89d1545630e8c14d749c35b813434"),
    ("planefield", "table", 0, "15f22e9d0f17d17bbed17d68a4335cab7ef50cb8eb2bdcc352bfaf6c46b114b1"),
    ("planefield", "tsv", 0, "0b045d5e1fb3bb44ca4015f38442ecd9e73497c577673b677ca09b7be07b9e01"),
    ("planefield", "json", 0, "69ef13371b934e2ff483e7485c0aa561836c2791593681662dcb84fcf4a56229"),
    ("planefield_c1sq", "table", 0, "caf60ba2da2a5131d3a3fb67027fdb5b3745004b17bd930a0accbd3af871c109"),
    ("planefield_c1sq", "tsv", 0, "c2d64165b8f77400e45589e41336018c0dab5d98262285d36970cd95f7ece824"),
    ("planefield_c1sq", "json", 0, "073d78f65a407530e3223c39351931d1b25b5d477e559d0bcfe0a1c9edef7450"),
    ("trefoil", "table", 0, "3b47ca1ff93c08c45ab7b0ddd15ae490deb9d7c7d8427dc5855f95df8ee47066"),
    ("oracle_trace", "table", 0, "92110b8347f92d995969982dff4b77662119e5dbfa6086e2be0fd48d8c105a59"),
    ("oracle_trace", "json", 0, "36223a0cc2ef93b363c7f8299bf9d58d2e1a1a847c7edafaf4de7cb24a0b9265"),
    ("oracle_exit3", "table", 3, "9ee674b3637e473988d475d2105613c0c8fbe0d2b5f34ae3aa2158457f3260c0"),
    ("oracle_exit3_repeat", "json", 3, "eb9443b3dbdc0c08ca6c889fd2e09548d0d22b387df1d479cff6884fb7d54d03"),
    ("usage", "table", 2, "b1dad6bd356d461c66a801ff07c233a80759009ebf3744c320681e77b72a71ef"),
]


# Ids name the case and format, not the digest, so a re-pin keeps them.
@pytest.mark.parametrize("case, fmt, code, digest", GOLDEN,
                         ids=[f"{case}-{fmt}" for case, fmt, _, _ in GOLDEN])
def test_cli_output_is_pinned(capsys, tmp_path, case, fmt, code, digest):
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps(CATALOG))
    argv = ["--format", fmt] + [a.format(catalog=catalog) for a in CASES[case]]
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    both = f"{captured.out}\0{captured.err}"
    assert hashlib.sha256(both.encode()).hexdigest() == digest
