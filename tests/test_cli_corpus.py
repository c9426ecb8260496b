"""Byte-identity corpus for the CLI.

Each command runs through ``cli.main`` in a directory holding the fixture
files below, as text and with ``--json``. The digest pins its exit code,
stdout and stderr together, so a refactor that changes any byte of what a
user sees fails here. File names are relative, so no output holds a
temporary path.
"""

import hashlib
import json

import pytest

from iasl_lab.cli import main

FILES = {
    "k12.txt": "c l1\nc l2\n",
    "k16.txt": "".join(f"c l{i}\n" for i in range(1, 7)),
    "p4.txt": "a b\nb c\nc d\n",
    "c4.txt": "a b\nb c\nc d\nd a\n",
    "k12-good.txt": "X {0,1}\nc {0}\nl1 {1}\nl2 {0,1}\n",
    "k12-shared.txt": "X {0,1}\nc {1}\nl1 {1}\nl2 {0,1}\n",
    "p4-uniform.txt": "X {0,1,2,3}\na {1,2}\nb {0}\nc {0,1}\nd {2}\n",
    "c4-lab.txt": "X {0,1,2}\na {0}\nb {1}\nc {2}\nd {0,1}\n",
    "chain.txt": "{}\n{0}\n{0,1}\n{0,1,2}\n",
}

COMMANDS = [
    *(("search", "--mode", mode, graph, ground)
      for graph, ground in (("k12.txt", "{0,1}"), ("k16.txt", "{0,1,2}"),
                            ("k16.txt", "{0,1,3}"), ("p4.txt", "{0,1,2}"))
      for mode in ("iasgl", "top-iasl", "top-iasgl")),
    ("verify", "--class", "iasl", "k12.txt", "k12-good.txt"),
    ("verify", "--class", "iasi", "p4.txt", "p4-uniform.txt"),
    ("verify", "--class", "uniform:2", "p4.txt", "p4-uniform.txt"),
    ("verify", "--class", "uniform:2", "k12.txt", "k12-good.txt"),
    ("verify", "--class", "iasgl", "k12.txt", "k12-good.txt"),
    ("verify", "--class", "iasgl", "k12.txt", "k12-shared.txt"),
    ("verify", "--class", "top-iasl", "k12.txt", "k12-good.txt"),
    ("verify", "--class", "top-iasgl", "k12.txt", "k12-good.txt"),
    ("verify", "--class", "top-iasgl", "c4.txt", "c4-lab.txt"),
    ("classify", "{0,1,2}"),
    ("enum-topologies", "{0,1,2}"),
    ("enum-topologies", "{0,1,2}", "--count"),
    ("enum-topologies", "{0,1,2}", "--with-zero"),
    *(("min-ground-set", "--mode", mode, "k16.txt")
      for mode in ("iasgl", "top-iasl", "top-iasgl")),
    ("realize", "chain.txt"),
]

DIGESTS = {
    "search --mode iasgl k12.txt {0,1}":
        "faf88415aadbbf5f1025c41933c09cb4cea5d9fb3b7e20d88686d69b1e970bc9",
    "search --mode iasgl k12.txt {0,1} --json":
        "595be45c2451c5890d5a970f80b9f07a4593946984b268498fcd4dfaba00b591",
    "search --mode top-iasl k12.txt {0,1}":
        "faf88415aadbbf5f1025c41933c09cb4cea5d9fb3b7e20d88686d69b1e970bc9",
    "search --mode top-iasl k12.txt {0,1} --json":
        "29bb6a7581642ec9a3b29a3a61da827dd37ffbe1436003bc5da3c78c1694888b",
    "search --mode top-iasgl k12.txt {0,1}":
        "faf88415aadbbf5f1025c41933c09cb4cea5d9fb3b7e20d88686d69b1e970bc9",
    "search --mode top-iasgl k12.txt {0,1} --json":
        "6bd97cda94e49f34a5dce8f5090085b81a80978446a32b7275ea100ccbaad626",
    "search --mode iasgl k16.txt {0,1,2}":
        "4456c96d4280ac0e1c0b90f25e7b6a698f6c439027190c75ea84ed1f1fee502e",
    "search --mode iasgl k16.txt {0,1,2} --json":
        "e5cd7375946026b5c837c6a167e919d2a3c69010eb0a36c16dc7e9d8c064bb21",
    "search --mode top-iasl k16.txt {0,1,2}":
        "4456c96d4280ac0e1c0b90f25e7b6a698f6c439027190c75ea84ed1f1fee502e",
    "search --mode top-iasl k16.txt {0,1,2} --json":
        "f374a5ff770f8589bb87215c61b8321ea2edf832ee91af8b92679051edd939d4",
    "search --mode top-iasgl k16.txt {0,1,2}":
        "4456c96d4280ac0e1c0b90f25e7b6a698f6c439027190c75ea84ed1f1fee502e",
    "search --mode top-iasgl k16.txt {0,1,2} --json":
        "b16a52f92a748d80389b4f98b53749977a4dbeb3974fbd0d9c8916e3d3734634",
    "search --mode iasgl k16.txt {0,1,3}":
        "2ea1f677feb6e0cd2eabe4cb2b82c2478853e4479928d89a0e64ceb1b4d3c818",
    "search --mode iasgl k16.txt {0,1,3} --json":
        "b02379f0a3117500978c16595d66aa35b5608ec79a7471d3de83a56c3ff87861",
    "search --mode top-iasl k16.txt {0,1,3}":
        "2ea1f677feb6e0cd2eabe4cb2b82c2478853e4479928d89a0e64ceb1b4d3c818",
    "search --mode top-iasl k16.txt {0,1,3} --json":
        "3e93a6c79447348e361189ea0a7780854b9389c3d003f6110daa3959e4b7af36",
    "search --mode top-iasgl k16.txt {0,1,3}":
        "2ea1f677feb6e0cd2eabe4cb2b82c2478853e4479928d89a0e64ceb1b4d3c818",
    "search --mode top-iasgl k16.txt {0,1,3} --json":
        "f6c37bf4e51ed5c57532e27ed88262878cd00eeb7ae43c056807bef4edf6319c",
    "search --mode iasgl p4.txt {0,1,2}":
        "69ab5b545bbffbbffbcc484af6e473ad3a9cb3d46e927eff8e9e3b4e035369b1",
    "search --mode iasgl p4.txt {0,1,2} --json":
        "cd88f1a72bde67e095f779d5c679d718a7f5d1909087da5df73c2999d033fd0d",
    "search --mode top-iasl p4.txt {0,1,2}":
        "e325af88de9aa041c667d02e29a73dba68c669ab97f2bb0a8229d686606f28ce",
    "search --mode top-iasl p4.txt {0,1,2} --json":
        "6b3afc833142c5d4e2ee3117c426d857c7ecfec0b2078865fba62b546804b920",
    "search --mode top-iasgl p4.txt {0,1,2}":
        "69ab5b545bbffbbffbcc484af6e473ad3a9cb3d46e927eff8e9e3b4e035369b1",
    "search --mode top-iasgl p4.txt {0,1,2} --json":
        "19ee8a0ed958ba7ebd2707f5fefae76f46215d78884fd4f6f4d2a0299b026f5c",
    "verify --class iasl k12.txt k12-good.txt":
        "8083a22ce43c712b31060ab2cd2b026dda3ac3dee3f190c30462442688000e0d",
    "verify --class iasl k12.txt k12-good.txt --json":
        "907b2e63910646262c74bc28b77adeb093522ab3d2b5916f389a619dfb067c26",
    "verify --class iasi p4.txt p4-uniform.txt":
        "8083a22ce43c712b31060ab2cd2b026dda3ac3dee3f190c30462442688000e0d",
    "verify --class iasi p4.txt p4-uniform.txt --json":
        "862c924e3b19cc68bbe6a0dd966d20e183c594166a8e7cb2c194dfcf7343eeec",
    "verify --class uniform:2 p4.txt p4-uniform.txt":
        "8083a22ce43c712b31060ab2cd2b026dda3ac3dee3f190c30462442688000e0d",
    "verify --class uniform:2 p4.txt p4-uniform.txt --json":
        "10948413878aabb2cdd27f25d458fe858570d55b491d166ad80395030d494cb4",
    "verify --class uniform:2 k12.txt k12-good.txt":
        "6290562f9165c1ec5e3eb2439fbed54e43727c1821f417d6ad9e47cd30bcda73",
    "verify --class uniform:2 k12.txt k12-good.txt --json":
        "29fd39b7be067bf21dc9e10e9aeedd7a494187ed0202ff0e4159a935fc2e90e2",
    "verify --class iasgl k12.txt k12-good.txt":
        "8083a22ce43c712b31060ab2cd2b026dda3ac3dee3f190c30462442688000e0d",
    "verify --class iasgl k12.txt k12-good.txt --json":
        "9a41dc47f7b3868577516a29440d5174ef2084f02d8a1541778e4c05d17b202a",
    "verify --class iasgl k12.txt k12-shared.txt":
        "01f3c843e6c5e00974f55add192eb2bcacd0960875040736c46d0a3395f7b33d",
    "verify --class iasgl k12.txt k12-shared.txt --json":
        "ca5140a48875f0b2db8e60017c91c1a09d6d4d4018e7591214169e95fb8ae045",
    "verify --class top-iasl k12.txt k12-good.txt":
        "8083a22ce43c712b31060ab2cd2b026dda3ac3dee3f190c30462442688000e0d",
    "verify --class top-iasl k12.txt k12-good.txt --json":
        "5fed48972270b0595963182c7c4a38c0990d9ba2aa4ddf37bdb55455eb717c40",
    "verify --class top-iasgl k12.txt k12-good.txt":
        "8083a22ce43c712b31060ab2cd2b026dda3ac3dee3f190c30462442688000e0d",
    "verify --class top-iasgl k12.txt k12-good.txt --json":
        "5d36c552112c634ae41cae73934382c85a36c3d61a48126d1cd7be06e257180b",
    "verify --class top-iasgl c4.txt c4-lab.txt":
        "ed51d75802d4e62b27807cda843fce78e668b7d708722bc940fb35c8ba3480ab",
    "verify --class top-iasgl c4.txt c4-lab.txt --json":
        "6beff175ea49feeefeab0d213ee71966b3053d68317a9d9765f7dba1918d0a5b",
    "classify {0,1,2}":
        "bfeeff943aa334e785577e1c690c6797273aa1032a511dd4224885250f29bd10",
    "classify {0,1,2} --json":
        "909083e8396f7f1e649afa490d1fc989a4a4ece6d4b07df11bcc589cf5817478",
    "enum-topologies {0,1,2}":
        "27fe18772fa2b6c83c0805315f5e34193f67344c1fedac0750ddff0af7e65acd",
    "enum-topologies {0,1,2} --json":
        "c90485fc7db678004220201d525a9bea45acdb6d47478534285349819642b8ff",
    "enum-topologies {0,1,2} --count":
        "efe89d753bed5dc371f9bdc92c57b1c61d4d29f0a7ed317e14571f4dc6e8145e",
    "enum-topologies {0,1,2} --count --json":
        "0674a202836577240caf5074ffba89c32fb7ca5cdb9c533479536f71b214b30a",
    "enum-topologies {0,1,2} --with-zero":
        "c5ec8ad69e24aceab82985f51269ad5942fd97966b1f141a6d3e11096490a51b",
    "enum-topologies {0,1,2} --with-zero --json":
        "dee3227498982b5d3a9b41f0369aefabcaa9f450df2dce913bc271a75bd449ab",
    "min-ground-set --mode iasgl k16.txt":
        "85a0f26e77212657ad040606f71c4a1e633a41c6ef52ff87cadaa1d140cdc669",
    "min-ground-set --mode iasgl k16.txt --json":
        "c4e416713461d18a7aded1239acad2ca1ecac680a281642eda17621682438b98",
    "min-ground-set --mode top-iasl k16.txt":
        "85a0f26e77212657ad040606f71c4a1e633a41c6ef52ff87cadaa1d140cdc669",
    "min-ground-set --mode top-iasl k16.txt --json":
        "9034585cd42a01297d49ea34cb15e88ee716023dddefc3dd7facde7e7d62012c",
    "min-ground-set --mode top-iasgl k16.txt":
        "85a0f26e77212657ad040606f71c4a1e633a41c6ef52ff87cadaa1d140cdc669",
    "min-ground-set --mode top-iasgl k16.txt --json":
        "dc25f07ea17df7b3170ffab584e3ea9098e2ecc1d043fa74b7ca350c9adba663",
    "realize chain.txt":
        "9967e2c180f2c6e24f06ee2bcd2aabfcbb3a9c9e16c7938614480c2fe0355edc",
    "realize chain.txt --json":
        "6622d9a604a50873c3eeb1dcfb1157aa691234e3c0def8ef964a8b9ae845583a",
}


def _calls():
    for argv in COMMANDS:
        yield argv
        yield (*argv, "--json")


def run_corpus_command(capsys, argv) -> str:
    code = main(list(argv))
    out = capsys.readouterr()
    return hashlib.sha256(json.dumps([code, out.out, out.err]).encode()).hexdigest()


@pytest.fixture
def fixture_dir(tmp_path, monkeypatch):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("argv", list(_calls()), ids=" ".join)
def test_output_is_byte_identical(capsys, fixture_dir, argv):
    assert run_corpus_command(capsys, argv) == DIGESTS[" ".join(argv)]


def test_every_call_is_pinned():
    assert sorted(DIGESTS) == sorted(" ".join(argv) for argv in _calls())
