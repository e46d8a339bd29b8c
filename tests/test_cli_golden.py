"""Byte-for-byte CLI reports: the README tour and every shipped fixture.

Each case pins the full stdout and the exit code. Arguments that start
with '@' name a fixture shipped in src/diffalg/fixtures/.
"""

import pytest

from diffalg.cli import main
from diffalg.instances import fixture_path

CASES = [
    (
        ['tau', 'x1^2', '--m', '1', '--n', '1'],
        0,
        (
            '2*x1*y1\n'
            '---\n'
            'status: ok\n'
            'tau: 2*x1*y1\n'
            'exit: 0\n'
        ),
    ),
    (
        ['tau', 'x1^2', '--m', '1', '--n', '1', '--field', 'rational_t', '--check-point', 'x1=t2'],
        0,
        (
            '2*x1*y1\n'
            'tau value at (point, D point): 2*t2\n'
            'D of value at point:           2*t2\n'
            'chain rule: ok\n'
            '---\n'
            'status: ok\n'
            'tau: 2*x1*y1\n'
            'chain_rule: ok\n'
            'exit: 0\n'
        ),
    ),
    (
        ['reduce', 'd1 d1 x1', '--system', 'd1 x1 - x1', '--m', '1', '--n', '1', '--check'],
        0,
        (
            'mode: full\n'
            'remainder: x1\n'
            'premultiplier: 1\n'
            'steps: 2\n'
            'cofactor[id applied to element 1]: 1\n'
            'cofactor[d1 applied to element 1]: 1\n'
            'certificate identity: verified by re-expansion\n'
            '---\n'
            'status: ok\n'
            'remainder: x1\n'
            'premultiplier: 1\n'
            'steps: 2\n'
            'verified: true\n'
            'exit: 0\n'
        ),
    ),
    (
        ['coherent', '--system', 'd1 x1 - 1; d2 x1', '--m', '2', '--n', '1'],
        0,
        (
            'pair (elements 2, 1): remainder 0\n'
            'coherent\n'
            '---\n'
            'status: coherent\n'
            'pairs: 1\n'
            'exit: 0\n'
        ),
    ),
    (
        ['hprod', '--system', 'x1^2 - 1', '--m', '1', '--n', '1'],
        0,
        (
            '2*x1\n'
            '---\n'
            'status: ok\n'
            'h: 2*x1\n'
            'exit: 0\n'
        ),
    ),
    (
        ['groebner', 'x1^2 - 1; x1*x2 - 1', '--vars', 'x1, x2', '--order', 'lex', '--m', '0', '--n', '2'],
        0,
        (
            'x2^2 - 1\n'
            '-x2 + x1\n'
            '---\n'
            'status: ok\n'
            'size: 2\n'
            'order: lex\n'
            'exit: 0\n'
        ),
    ),
    (
        ['member', 'x1 - x2', 'x1^2 - 1; x1*x2 - 1', '--vars', 'x1, x2', '--m', '0', '--n', '2'],
        0,
        (
            'member: yes\n'
            'normal form: 0\n'
            '---\n'
            'status: member\n'
            'normal_form: 0\n'
            'exit: 0\n'
        ),
    ),
    (
        ['eliminate', 'x1*x2 - 1; x1', '--vars', 'x1, x2', '--drop', 'x2', '--m', '0', '--n', '2'],
        0,
        (
            '1\n'
            '---\n'
            'status: ok\n'
            'size: 1\n'
            'exit: 0\n'
        ),
    ),
    (
        ['saturate', 'x1*x2', '--vars', 'x1, x2', '--by', 'x1', '--m', '0', '--n', '2'],
        0,
        (
            'x2\n'
            '---\n'
            'status: ok\n'
            'size: 1\n'
            'exit: 0\n'
        ),
    ),
    (
        ['prime', 'x1^2 + 1', '--vars', 'x1', '--m', '0'],
        0,
        (
            'status: prime\n'
            'method: principal-irreducible\n'
            'note: factor search exhausted at degree 1, height 2; irreducible mod 3 (Rabin\'s test), hence over Q\n'
            '---\n'
            'status: prime\n'
            'method: principal-irreducible\n'
            'exit: 0\n'
        ),
    ),
    (
        ['certify', '@coherent-pair.sys'],
        0,
        (
            'status: certified\n'
            'stage: complete\n'
            'reason: coherent with prime algebraic ideal\n'
            'pair (elements 2, 1): remainder 0\n'
            'primality: prime (linear)\n'
            '---\n'
            'status: certified\n'
            'stage: complete\n'
            'exit: 0\n'
        ),
    ),
    (
        ['certify', '@incoherent-pair.sys'],
        2,
        (
            'status: rejected\n'
            'stage: coherence\n'
            'reason: 1 cross-derivative pair(s) do not reduce to zero\n'
            'pair (elements 2, 1): remainder -1\n'
            '---\n'
            'status: rejected\n'
            'stage: coherence\n'
            'exit: 2\n'
        ),
    ),
    (
        ['certify', '@nonprime-square.sys'],
        2,
        (
            'status: rejected\n'
            'stage: primality\n'
            'reason: factorization witness\n'
            'primality: not_prime (counterexample)\n'
            'zero-divisor witness: (x1) * (x1)\n'
            '---\n'
            'status: rejected\n'
            'stage: primality\n'
            'exit: 2\n'
        ),
    ),
    (
        ['axiom', 'validate', '@basic.axiom'],
        0,
        (
            'status: valid\n'
            'open-set point: x1 := 0\n'
            '---\n'
            'status: valid\n'
            'order_bound: 2\n'
            'exit: 0\n'
        ),
    ),
    (
        ['axiom', 'project', '@basic.axiom'],
        0,
        (
            'surrogate order bound: 2\n'
            'eliminant d1x1: remainder 0\n'
            'projection covers the open set\n'
            '---\n'
            'status: ok\n'
            'order_bound: 2\n'
            'exit: 0\n'
        ),
    ),
    (
        ['axiom', 'witness', '@basic.axiom'],
        0,
        (
            'status: found\n'
            'candidates examined: 6\n'
            'witness: x1 := t2\n'
            'check system: d1x1 -> 0 (ok)\n'
            'check H -> 1 (ok)\n'
            'check W: d1x1 -> 0 (ok)\n'
            'check W: d1y1 -> 0 (ok)\n'
            'check W: y1 - 1 -> 0 (ok)\n'
            '---\n'
            'status: found\n'
            'witness: x1 := t2\n'
            'examined: 6\n'
            'exit: 0\n'
        ),
    ),
    (
        ['axiom', 'validate', '@exhaustion.axiom'],
        0,
        (
            'status: valid\n'
            'open-set point: x1 := 0\n'
            '---\n'
            'status: valid\n'
            'order_bound: 2\n'
            'exit: 0\n'
        ),
    ),
    (
        ['axiom', 'project', '@exhaustion.axiom'],
        0,
        (
            'surrogate order bound: 2\n'
            'eliminant d1x1: remainder 0\n'
            'projection covers the open set\n'
            '---\n'
            'status: ok\n'
            'order_bound: 2\n'
            'exit: 0\n'
        ),
    ),
    (
        ['axiom', 'witness', '@exhaustion.axiom'],
        2,
        (
            'status: exhausted\n'
            'candidates examined: 27\n'
            'candidate x1 := 0: failed W: y1^2 + 1\n'
            'candidate x1 := 1: failed W: y1^2 + 1\n'
            'candidate x1 := -1: failed W: y1^2 + 1\n'
            'candidate x1 := t1: failed system: d1x1\n'
            'candidate x1 := -t1: failed system: d1x1\n'
            'candidate x1 := t2: failed W: y1^2 + 1\n'
            'candidate x1 := t1 + t2: failed system: d1x1\n'
            'candidate x1 := -t1 + t2: failed system: d1x1\n'
            'candidate x1 := -t2: failed W: y1^2 + 1\n'
            'candidate x1 := t1 - t2: failed system: d1x1\n'
            'candidate x1 := -t1 - t2: failed system: d1x1\n'
            'candidate x1 := t1 + 1: failed system: d1x1\n'
            'candidate x1 := -t1 + 1: failed system: d1x1\n'
            'candidate x1 := t2 + 1: failed W: y1^2 + 1\n'
            'candidate x1 := t1 + t2 + 1: failed system: d1x1\n'
            'candidate x1 := -t1 + t2 + 1: failed system: d1x1\n'
            'candidate x1 := -t2 + 1: failed W: y1^2 + 1\n'
            'candidate x1 := t1 - t2 + 1: failed system: d1x1\n'
            'candidate x1 := -t1 - t2 + 1: failed system: d1x1\n'
            'candidate x1 := t1 - 1: failed system: d1x1\n'
            'candidate x1 := -t1 - 1: failed system: d1x1\n'
            'candidate x1 := t2 - 1: failed W: y1^2 + 1\n'
            'candidate x1 := t1 + t2 - 1: failed system: d1x1\n'
            'candidate x1 := -t1 + t2 - 1: failed system: d1x1\n'
            'candidate x1 := -t2 - 1: failed W: y1^2 + 1\n'
            'candidate x1 := t1 - t2 - 1: failed system: d1x1\n'
            'candidate x1 := -t1 - t2 - 1: failed system: d1x1\n'
            '---\n'
            'status: exhausted\n'
            'examined: 27\n'
            'degree: 1\n'
            'height: 1\n'
            'exit: 2\n'
        ),
    ),
    (
        ['demo', 'naive-vs-tau', '@square-naive.demo'],
        0,
        (
            'status: found\n'
            'point: x1 := 0; y-side y1 := 1\n'
            'violated member: x1\n'
            'prolonged value: 1\n'
            'open-set samples checked: 1, violations: 0\n'
            '---\n'
            'status: found\n'
            'samples: 1\n'
            'sample_violations: 0\n'
            'exit: 0\n'
        ),
    ),
    (
        ['demo', 'naive-vs-tau', '@linear-flow.demo', '--samples', '10'],
        2,
        (
            'status: not_found_at_bounds\n'
            'open-set samples checked: 10, violations: 0\n'
            '---\n'
            'status: not_found_at_bounds\n'
            'samples: 10\n'
            'sample_violations: 0\n'
            'exit: 2\n'
        ),
    ),
]


def _resolve(argv):
    return [str(fixture_path(a[1:])) if a.startswith("@") else a for a in argv]


@pytest.mark.parametrize("argv, code, stdout", CASES,
                         ids=[f"{i}-{argv[0]}" for i, (argv, _, _) in enumerate(CASES)])
def test_cli_report_is_byte_identical(capsys, argv, code, stdout):
    assert main(_resolve(argv)) == code
    assert capsys.readouterr().out == stdout
