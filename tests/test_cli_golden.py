"""Byte-identical CLI output on a fixed golden command set.

Each row is (argv, exit code, sha256 of stdout).  The first ten digests
were recorded from the CLI before its parameter handling was simplified;
every command stays inside the sizes the suites ran back then, so a
refactor of the CLI, the suites or the rendering must leave these bytes
unchanged.  Each later row was recorded at the commit before the one
that added it: the top-weight suite at g, m <= 6, the default
`verify all`, and the relation suite with 500 wheel-oracle samples
(961 passing checks) and the propagator suite at its smallest size (two
passing checks, the second finding the mismatch at q^2, w^0).  The last
two replace CI steps that counted the checks of those runs; a digest
pins every count, status and id they checked.  The one fixed run kept
out of this table is `verify topweight --g-max 8 --m-max 8`, too slow
for Tier-1, which CI pins by its exit status and sha256.
"""

import hashlib

import pytest

from soclecalc.cli import main

GOLDEN = [
    (
        "verify all --g-max 3 --m-max 4 --q-order 8 --w-order 8 --samples 20 "
        "--seed 7 --format json",
        0,
        "0e419821c78f62b7188b59db08dfa71360f66b1af4aa6b7f64bbeef55bc4cbd0",
    ),
    (
        "verify all --g-max 3 --m-max 4 --q-order 8 --w-order 8 --samples 20 "
        "--seed 7 --format markdown",
        0,
        "9da1e1b7a55bd5922944b4f61e5f92a89fa4d95eaf9ef25ca85c2dd7a824cdba",
    ),
    (
        "verify relation --g-max 5 --format csv",
        0,
        "894be7ea0a12489962e4c466ee2bfb66e5474b951949fcdfee75b3f5485012ba",
    ),
    (
        "verify dr --g-max 6 --format json",
        0,
        "033aaf98af5318e820fc8deb196c8e7b5891bd471bd9a26ce6147d7050fa44f9",
    ),
    (
        "verify propagator --q-order 8 --w-order 8 --format json",
        0,
        "93c8db30fb679f94bb3c7fbb991aa91eebb9f1907040b7ff53a5f692e41c9c37",
    ),
    (
        "socle --g 1 --d 2,0,0 --format csv",
        2,
        "2a48f4d2ef4e8e86128cb6f556e17459fc98d8d7630ba15d9d19182250548dc1",
    ),
    (
        "socle --g 3 --d 3,1,0 --format json",
        0,
        "875cdda684d77dda3bc7fee7ac37fa3f65c2a90e618e7831ed1c3d12521de58c",
    ),
    (
        "table socle --g-max 6 --n-max 6 --format csv",
        0,
        "9d1ae0cc997c61db4cb4b1edebdd5e3625a51460ab932943786eb2fe173e0c16",
    ),
    (
        "table dr --g-max 4 --a-max 3",
        0,
        "51a26def6b95b4eeea6b149c4be3a203a85df41d55b1fa9b875aeff687a97234",
    ),
    (
        "table eisenstein --k 2,4,6 --order 10 --format json",
        0,
        "5bbb237df6091d78dc16c45facd73d38c181c463c246d625c67fa7e4ae2317b7",
    ),
    (
        "verify topweight --g-max 6 --m-max 6 --format json",
        0,
        "fe9b479a55655c7279c95307578539e37cbf326a29a52f12e2bb2e3d42f0d71d",
    ),
    (
        "verify all --format json",
        0,
        "4efcd4743a8f84bbcaade0d4dc4f68ff2c878d83e16e097fd542f63ca963901c",
    ),
    (
        "verify relation --g-max 6 --m-max 5 --samples 500 --seed 3 --format json",
        0,
        "eacb290d548487fa94c17ca6f8e5ce0421ec5973f5e33cf01f1e94ded91b1e39",
    ),
    (
        "verify propagator --q-order 2 --w-order 1 --format json",
        0,
        "bb997b99bf458ebb35a74b5ea2c100d8b55992a87db02d790c240d3594d34774",
    ),
]


@pytest.mark.parametrize("command,code,digest", GOLDEN, ids=[c for c, _, _ in GOLDEN])
def test_golden_output(command, code, digest, capsys):
    assert main(command.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
