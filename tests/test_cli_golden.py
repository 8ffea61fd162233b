"""Byte-identical CLI output on a fixed golden command set.

Each row is (argv, exit code, sha256 of stdout).  The first ten digests
were recorded from the CLI before its parameter handling was simplified;
every command stays inside the sizes the suites ran back then, so a
refactor of the CLI, the suites or the rendering must leave these bytes
unchanged.  Each later row was recorded at the commit before the one
that added it: the top-weight suite at g, m <= 6, the default
`verify all`, and the relation suite with 500 wheel-oracle samples
(961 passing checks) and the propagator suite at its smallest size (two
passing checks, the second finding the mismatch at q^2, w^0).  Those
two replace CI steps that counted the checks of those runs; a digest
pins every count, status and id they checked.  The last three pin the
exact values of `dr3_closed`, `dr3_recursive` and `faber` at larger
sizes than the rows above: the three-point table and the dr suite at
g <= 12, and the socle table at g, n <= 10.  The fixed runs
kept out of this table are `verify topweight --g-max 12 --m-max 12`
(936 checks, past the sizes that fit could solve; its checks above
weight 12 evaluate the built polynomial) and
`table socle --g-max 16 --n-max 16 --format csv` (115956 rows, which
hold the 43357 of g, n <= 14), too slow for Tier-1, which CI pins by
their exit status and sha256.  The 936 checks include
the 550 of `verify topweight --g-max 10 --m-max 10`, each with the same
id, status and witness, so that run is no longer pinned on its own.
The top-weight row here was kept byte for byte when the checks above
weight 12 stopped fitting.

When the default `--m-max` of `verify` went from 4 to 6, the two rows
that ran at the default (`verify all --format json` and
`verify relation --g-max 5 --format csv`) took the digests of the new
default, recorded as the same commands with `--m-max 6` at the commit
before.  The last two rows keep the old digests by passing `--m-max 4`:
the JSON `config` echoes effective values, so those bytes are the ones
the old default printed.

The seven JSON `verify` rows were re-recorded when the JSON `config`
stopped echoing every flag and began listing only the flags its suites
read (`cli.SUITES`).  With the `config` key deleted, each of their
payloads and exit codes equals the one printed before; the other seven
rows (markdown, csv, `socle`, `table`) kept their digests.

The last six rows were recorded at the commit before the CLI wrote its
`Fraction`s through json's `default` hook and one cell formatter instead
of a converted copy of each payload: `table socle` as JSON and as
markdown, `table dr` as JSON, `table eisenstein` as CSV, and `socle` as
markdown with `--method both` and with `--method faber`, each at a small
size, so that every format of every command the change touched is
pinned.  Their checks all pass; test_cli.py's
test_failing_report_bytes pins the witnesses of failing checks.
"""

import hashlib

import pytest

from soclecalc.cli import main

GOLDEN = [
    (
        "verify all --g-max 3 --m-max 4 --q-order 8 --w-order 8 --samples 20 "
        "--seed 7 --format json",
        0,
        "35ce4b367759471ce806b13e74515e3e818038cbedcefe6c3fdde8bbfdff760e",
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
        "3bd17cd4077363887cbe3a5f41b7f2eb87b8c113b1f304a13198a49afdf2b4e2",
    ),
    (
        "verify dr --g-max 6 --format json",
        0,
        "ff33e874e89a0096422a46ba5cf845f0d5c02f21f34a22c222ec409f706c1b7e",
    ),
    (
        "verify propagator --q-order 8 --w-order 8 --format json",
        0,
        "62ec3f4a3483438cd30116e8727e7f9083c2eefc77f1f04665b4c154990c48f7",
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
        "b84ef28c35c1e803382c5943008487ee3aa0a9715da9f1dff5301c4ad90e5892",
    ),
    (
        "verify all --format json",
        0,
        "66eb6eaaab773620a2e0f542d8dbd19dd0326bdaade91c03a24c24d587f2a3b2",
    ),
    (
        "verify relation --g-max 6 --m-max 5 --samples 500 --seed 3 --format json",
        0,
        "1126b3f418194f2a25baa4b28436d3f3ede25b9750da87e11d823a67d853bde8",
    ),
    (
        "verify propagator --q-order 2 --w-order 1 --format json",
        0,
        "ed7bdce4dd55deb803efaf0506b3054716ee2deb3c25272d7d3523e6f6263149",
    ),
    (
        "table dr --g-max 12 --a-max 6 --format csv",
        0,
        "5ae16541be4bd684cbe0b59f6865b019d1eb3be9e413af7339b72ca77e77a534",
    ),
    (
        "verify dr --g-max 12 --format json",
        0,
        "73b511e43cecbfbac1a1d172d61582116c595ccce7d426998d5acba162eed595",
    ),
    (
        "table socle --g-max 10 --n-max 10 --format csv",
        0,
        "833c7c7f26652c927024b91a48f6bc4e40e8ad1377bf067ad958204ff98103b9",
    ),
    (
        "verify all --m-max 4 --format json",
        0,
        "e48119808cbe3d403f44c03227dceebcc398171f12dc674d0df3eeff58c27136",
    ),
    (
        "verify relation --g-max 5 --m-max 4 --format csv",
        0,
        "894be7ea0a12489962e4c466ee2bfb66e5474b951949fcdfee75b3f5485012ba",
    ),
    (
        "table socle --g-max 4 --n-max 4 --format json",
        0,
        "cddd66925c2f74a198a93330af74a3820a894fbc5b76aa027accf8cf85ab0dea",
    ),
    (
        "table socle --g-max 4 --n-max 4",
        0,
        "37785b82979fba0abe96ef6ec3c9fe570e0b3fdcafe453bb956bf11a1d7a27ec",
    ),
    (
        "table dr --g-max 3 --a-max 2 --format json",
        0,
        "04884076ded735920219c275bf498751c8a79909effea87b96d47303825b329b",
    ),
    (
        "table eisenstein --k 2,4,8 --order 6 --format csv",
        0,
        "8b8239d0b0b8d86da902a071c745ecf9c5f2c6ae78601b896d11fd27c2da7e6b",
    ),
    (
        "socle --g 1 --d 2,0,0 --method both",
        2,
        "0e57fd1727aa9e9eb48fae992bfd497d3526a8fde95a9e4349d10fee22e03e0d",
    ),
    (
        "socle --g 3 --d 3,1,0 --method faber",
        0,
        "d4ab8a88d6da532ff727f456f1848e6d365db01814231c651175a6b0b65186fb",
    ),
]


@pytest.mark.parametrize("command,code,digest", GOLDEN, ids=[c for c, _, _ in GOLDEN])
def test_golden_output(command, code, digest, capsys):
    assert main(command.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
