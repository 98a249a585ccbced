#!/usr/bin/env python3
"""Reconcile gpures-analyze's reports against gpures-corrupt's ledger.

    chaos_reconcile.py quality LEDGER QUALITY_JSON [armed]
        Assert data_quality.json exactly matches the corrupter's ledger.
        `armed` means the ledger's I/O fault was injected, so its day must
        show up as skipped.
    chaos_reconcile.py unknown-hosts LEDGER METRICS_JSON
        Assert pipe.unknown_hosts equals the ledger's renamed XID lines.

Exits non-zero with the first mismatch.
"""
import json
import sys


def chk(name, got, want):
    assert got == want, f'{name}: quality={got} ledger={want}'


def quality(args):
    ledger_path, quality_path = args[0], args[1]
    armed = len(args) > 2 and args[2] == 'armed'
    with open(ledger_path) as fh:
        expect = json.load(fh)['expect']
    with open(quality_path) as fh:
        q = json.load(fh)

    chk('binary lines', q['lines']['binary'], expect['binary_lines'])
    chk('binary bytes', q['lines']['binary_bytes'], expect['binary_bytes'])
    chk('overlong lines', q['lines']['overlong'], expect['overlong_lines'])
    chk('overlong bytes', q['lines']['overlong_bytes'],
        expect['overlong_bytes'])
    chk('torn lines', q['lines']['torn'], expect['torn_lines'])
    chk('torn bytes', q['lines']['torn_bytes'], expect['torn_bytes'])
    chk('missing days', len(q['coverage']['missing_days']),
        expect['missing_days'])
    chk('zero-byte days', q['coverage']['zero_byte_days'],
        expect['zero_byte_days'])
    chk('skipped days', len(q['coverage']['skipped_days']),
        expect['skipped_days'] if armed else 0)
    chk('accounting present', q['accounting']['present'],
        not expect['accounting_missing'])
    chk('rejected rows', q['accounting']['rows_rejected'],
        expect['accounting_rejected_rows'])
    chk('rejected bytes', q['accounting']['bytes_rejected'],
        expect['accounting_rejected_bytes'])

    # 100% accounting: the quarantine categories partition the total.
    chk('quarantine partition (lines)', q['lines']['quarantined'],
        q['lines']['binary'] + q['lines']['overlong'] + q['lines']['torn'])
    chk('quarantine partition (bytes)', q['lines']['quarantined_bytes'],
        q['lines']['binary_bytes'] + q['lines']['overlong_bytes']
        + q['lines']['torn_bytes'])
    # The per-day breakdown lists every day with quarantined material, so
    # its tallies must sum to the dataset-wide quarantine totals.
    for key in ('binary', 'binary_bytes', 'overlong', 'overlong_bytes',
                'torn', 'torn_bytes'):
        chk(f'per-day sum of {key}',
            sum(d[key] for d in q['days']), q['lines'][key])
    print(f'reconciled {quality_path} against {ledger_path}')


def unknown_hosts(args):
    with open(args[0]) as fh:
        want = json.load(fh)['expect']['unknown_hosts']
    with open(args[1]) as fh:
        got = json.load(fh)['counters'].get('pipe.unknown_hosts', 0)
    assert got == want, f'pipe.unknown_hosts={got} ledger={want}'
    print(f'unknown hosts {got} == ledger {want}')


COMMANDS = {'quality': (quality, 2), 'unknown-hosts': (unknown_hosts, 2)}


def main(argv):
    if len(argv) < 2 or argv[1] not in COMMANDS:
        sys.exit(__doc__)
    fn, min_args = COMMANDS[argv[1]]
    if len(argv) - 2 < min_args:
        sys.exit(__doc__)
    fn(argv[2:])


if __name__ == '__main__':
    main(sys.argv)
