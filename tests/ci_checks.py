"""CI's cold checks, one function each, run from a checkout:

    PYTHONPATH=src:tests python tests/ci_checks.py <check>|all

A check compares a kernel with an oracle of ``tests/conftest.py`` above
Tier-1's orders, through the body a Tier-1 test runs at its own orders
where there is one, or runs the command line, the demos or the benchmark
as a user would.  ``bad-input`` runs the refusal battery of
``tests/conftest.py`` in one capped child, as Tier-1's row tests do, and
checks each row against ``tests/golden/refusal_battery.json``.
``code-lines`` prints the count of lines holding code in ``src/``,
``tests/`` and ``perfbench/``, the count the change log quotes, and fails
only on a file that does not tokenize.  A check
prints its count, its seconds and its peak RSS (this process or its
largest child) and exits 1 if anything differs.  ``all``
runs every check cold, each in a child process, and exits 1 if any failed.
The file name keeps pytest from collecting it.
"""

import difflib
import io
import itertools
import json
import random
import resource
import subprocess
import sys
import time
import tokenize
from pathlib import Path

from conftest import (
    aut_differs,
    battery_faults,
    brace_mismatches,
    canonical_first_witness,
    capped_batteries,
    capped_python,
    catalog_cases,
    catalog_differs,
    characteristic_cases,
    characteristic_differs,
    clear_caches,
    decompose_cases,
    decompose_differs,
    dihedral_terms,
    first_witness,
    fresh_copy,
    full_check_extend_images,
    generating_set_differs,
    hom_orbit_reps_differ,
    law_differs,
    lifted_check_tables,
    listed_twist_witness,
    memo_of,
    orders_differ,
    pair_cases,
    per_element_semiregular_classes,
    per_x_cyclic_images,
    random_loop,
    swap_mutants,
    table_cases,
    table_differs,
    tally,
    transport_cases,
    transport_differs,
    unpruned_pair_search,
    walk_differs,
    witness_cases,
)
from hopfgalois import (
    automorphism_group,
    build,
    catalog,
    count_crossed_pairs,
    factory,
    groups,
    holomorph,
    parse_group_spec,
    perm,
    realize,
    regular_subgroups,
)
from hopfgalois.factory import is_squarefree
from hopfgalois.groups import BYTE_LIMIT

ROOT = Path(__file__).resolve().parent.parent
KERNEL_ORDERS = (66, 70, 78)  # every catalog N there has |Aut N| <= 936


def peak_rss_mb():
    who = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    return max(resource.getrusage(w).ru_maxrss for w in who) / 1024


def released(cases_of, orders):
    # cases_of([order]) for each order in turn, with the library's caches
    # emptied after each, so no order's catalog outlives its cases
    for order in orders:
        yield from cases_of([order])
        clear_caches()


def hol_d30():
    # the largest direct search inside the |N| <= 30 bound, from the
    # command line; then the four largest in this process, which list no
    # Hol(N) permutations, so they grow 2.3 MB above the start on a 2-core
    # x86 box (6.6 MB when Hol(N) was listed)
    argv = ["-m", "hopfgalois", "regular-subgroups", "--hol-of", "D30", "--format", "json"]
    out = capped_python(argv, None).stdout
    result = json.loads(out)["result"]
    expected = {"C30": 60, "D30": 4, "SD(15,2;11)": 20, "SD(15,2;4)": 12}
    bad = [] if (result["total"], result["counts"]) == (96, expected) else ["counts"]
    start = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for text in ("D30", "D26", "SD(15,2;4)", "D22"):
        regular_subgroups(holomorph(build(parse_group_spec(text))))
    grown = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - start) / 1024
    bad += [] if grown <= 4 else ["peak RSS"]
    return f"{result['total']} regular subgroups {result['counts']}, {grown:.1f} MB above the start", bad


def coordinate_search():
    # regular_subgroups records equal to those of the per-element path,
    # which lists every element of Hol(N) and tests it for
    # semiregularity, and the search's orbits equal to those of the
    # unpruned search, for every catalog N up to order 30
    coordinates = realize._semiregular_classes

    def records(found):
        return [(r.subgroup.elements, r.iso_index, r.iso_text, r.strategy) for r in found]

    def differs(N):
        hol = holomorph(N)
        if realize._pair_search(hol) != unpruned_pair_search(hol):
            return True
        found = records(regular_subgroups(hol))
        realize._semiregular_classes = per_element_semiregular_classes
        try:
            return found != records(regular_subgroups.__wrapped__(hol))
        finally:
            realize._semiregular_classes = coordinates

    checked, bad = tally(catalog_cases(range(1, 31)), differs)
    return f"{checked} groups", bad


def braces():
    # every catalog N up to order 30 in reversed and then shuffled order,
    # each brace followed by its two mutants; then the same sweep with the
    # structure memo emptied before every check, which must give the same
    # triple, so the memo keeps no verdict
    entries = list(catalog_cases(range(1, 31)))
    sweeps = []
    for cold in (False, True):
        rng = random.Random(29)
        shuffled = rng.sample(entries, len(entries))
        sweeps.append(brace_mismatches(entries[::-1] + shuffled, rng, cold))
    first, cold = sweeps
    checked, refused, bad = first
    bad += [] if cold == first else [f"emptied memo: {cold}"]
    bad += [] if checked == 810 and refused else [f"{checked} braces, {refused} refused"]
    return f"{checked} braces, {refused} relabelled group tables refused, twice", bad


def dihedral_66():
    # the sum over N of #pairs(D66, N) / |Aut N|; it covers (D66, D66),
    # which the benchmark leaves out
    terms = dihedral_terms(33)
    total = sum(q for q, _ in terms)
    bad = [] if total == 65 and not any(r for _, r in terms) else [f"terms {terms}"]
    return f"{len(terms)} terms {terms}, sum {total}", bad


def large_catalogs():
    # catalogs built from Hölder's classification: orders above
    # TABLE_LIMIT from the command line under 10 s each, then every
    # squarefree order up to 600 byte-identical to the iso_catalog oracle,
    # each catalog released before the next is built
    timed, bad = [], []
    for order, classes in ((1110, 12), (1995, 5)):
        started = time.perf_counter()
        argv = ["-m", "hopfgalois", "catalog", "--order", str(order), "--format", "csv"]
        proc = capped_python(argv, 10)
        timed.append(f"{order}: {time.perf_counter() - started:.1f} s")
        if proc.returncode or len(proc.stdout.splitlines()) != classes + 1:
            bad.append(f"catalog --order {order}")
    orders = [n for n in range(1, 601) if is_squarefree(n)]
    bad += [n for n in released(lambda batch: batch, orders) if catalog_differs(n)]
    return f"{len(orders)} squarefree orders, catalog {', '.join(timed)}", bad


def shapes():
    # decompose_burnside, which reads element orders, equal to the
    # subgroup-lattice oracle on every catalog group up to order 200 and
    # every odd part of a twice-odd one
    checked, bad = tally(decompose_cases(200), decompose_differs)
    return f"{checked} groups", bad


def characteristic():
    # the join walk's characteristic subgroups equal to the lattice
    # oracle's, in the same order, for every catalog N up to order 400
    # whose Aut(N) has a table, each catalog released before the next
    checked, bad = tally(released(characteristic_cases, range(1, 401)), characteristic_differs)
    return f"{checked} groups", bad


def element_orders():
    # the power walk's order and inverse tables on every catalog group up
    # to order 600, at 1110, whose tables the walk builds, and at 1995,
    # above TABLE_LIMIT, whose rows look entries up by base images; the
    # pruned minimal_generating_set up to order 600
    walked, bad = tally(released(catalog_cases, [*range(1, 601), 1110, 1995]), orders_differ)
    searched, bad_sets = tally(released(catalog_cases, range(1, 601)), generating_set_differs)
    return f"{walked} groups walked, {searched} generating sets", bad + bad_sets


def walk_kernel():
    # _generating_set on every catalog table up to order 210 and on 300
    # seeded random loops, many of them not groups; and Aut(N) for every
    # catalog N at orders 111-210, in closed form and from the chain,
    # whose orbit _reach grows, on an unshared copy
    tables = [(name, G.table(), G.identity_index) for name, G in catalog_cases(range(1, 211))]
    for seed in range(300):
        rng = random.Random(seed)
        tables.append((f"loop {seed}", *random_loop(rng, rng.randint(1, 7))))
    walked, bad = tally(tables, walk_differs)
    auts, bad_auts = tally(
        ((f"Aut({name})", N) for name, N in catalog_cases(range(111, 211))), aut_differs
    )
    return f"{walked} tables, {auts} Aut(N)", bad + bad_auts


def table_kernel():
    # the row walk on every catalog group at orders 211-600 and 1110, on
    # Aut(N) for every catalog N at orders 111-210 whose Aut(N) has a
    # table, and on Aut(N) for every catalog N up to order 600 with
    # 200 <= |Aut N| <= 320, bytes rows up to BYTE_LIMIT and tuples above
    tables = released(lambda order: table_cases(order, ()), [*range(211, 601), 1110])
    auts = released(lambda order: table_cases((), order), range(111, 211))
    cut = released(lambda order: table_cases((), order, range(200, 321)), range(1, 601))
    checked, bad = tally(itertools.chain(tables, auts), table_differs)
    sides = []

    def near_differs(A):
        sides.append(len(A) <= BYTE_LIMIT)
        return table_differs(A)

    bad += tally(cut, near_differs)[1]
    return f"{checked} tables; Aut(N) at the cut: {sum(sides)} bytes, {sides.count(False)} tuple", bad


def aut_closed_form():
    # Aut(N) in closed form against the chain on an unshared copy, for
    # every catalog N at orders 111-600: |Aut N| for each, and the element
    # lists wherever |Aut N|·|N| is within SIZE_LIMIT, each catalog
    # released before the next
    listed = 0

    def differs(N):
        nonlocal listed
        copy = fresh_copy(N)
        transversal, stabilizer = factory._aut_chain(copy)
        order = factory.automorphism_order(N)
        if order != len(transversal) * len(stabilizer):
            return True
        if order * len(N) > groups.SIZE_LIMIT:
            return False
        listed += 1
        # unmemoized, so only one pair of listings is held at a time
        listing = automorphism_group.__wrapped__
        return listing(N).elements != listing(copy).elements

    checked, bad = tally(released(catalog_cases, range(111, 601)), differs)
    return f"{checked} groups counted, {listed} listed", bad


def hom_orbit_reps():
    # the Hom(G, Aut N) walk against hom_orbits and least_conjugate, and
    # the witness against the first of the plain scan over all of Hom
    def differs(G, N):
        return hom_orbit_reps_differ(G, N) or first_witness(G, N) != canonical_first_witness(G, N)

    checked, bad = tally(pair_cases(KERNEL_ORDERS), differs)
    return f"{checked} pairs", bad + ([] if checked == 68 else ["pair count"])


def cocycle_kernel():
    # count_crossed_pairs and the witness, once on extend_images with each
    # catalog N's orbit splits kept across its sweep of G, and once, on
    # fresh copies of both groups for each pair, so with no split made
    # before, with full_check_extend_images in its place everywhere,
    # Aut(N)'s chain included; a fresh copy's Aut(N) and chain go with it,
    # and the kernel pass's catalogs are released before the oracle's.
    # Order 102 runs with the gate lifted, so the engine reads Aut(D102),
    # past TABLE_LIMIT, by rows.  Every cyclic candidate list the kernel
    # pass kept in a catalog N's memo, one per (N, f(a), ord a) it
    # reached, is held against per_x_cyclic_images before the release;
    # the summary says how many of them had an identity f(a), so were
    # read off N's order table with no walk, and none of them fails it
    def answers(copy):
        found = {}
        for order in (*KERNEL_ORDERS, 102):
            entries = catalog(order)
            for n in entries:
                for g in entries:
                    G, N = copy(g.group), copy(n.group)
                    name = f"({g.spec.text()}, {n.spec.text()})"
                    found[name] = count_crossed_pairs(G, N), first_witness(G, N)
        return found

    gate = realize._check_tables
    realize._check_tables = lifted_check_tables
    try:
        kernel = answers(lambda G: G)
        kept = [
            (f"{n.spec.text()} at {key}", n.group, key, found)
            for order in (*KERNEL_ORDERS, 102)
            for n in catalog(order)
            for key, found in memo_of(n.group, realize._cyclic_candidates).items()
        ]
        untwisted = sum(key[0] == perm.identity(len(N)) for _, N, key, _ in kept)
        lists, bad = tally(kept, lambda N, key, found: found != per_x_cyclic_images(N, *key))
        clear_caches()
        for module in (groups, factory, realize):
            module.extend_images = full_check_extend_images
        oracle = answers(fresh_copy)
    finally:
        realize._check_tables = gate
    bad += [name for name, v in kernel.items() if oracle[name] != v]
    summary = f"{len(kernel)} pairs, {lists} cyclic candidate lists, {untwisted} of an identity twist"
    bad += [] if untwisted else ["no identity twist"]
    return summary, bad + ([] if len(kernel) == 84 else ["pair count"])


def witness_law():
    # verify_law, which reads f from g on generators, equal to the
    # all-pairs oracle on the witness of every catalog pair at squarefree
    # orders up to 250, on the lift, and on five mutants of each with two
    # images of g swapped; a swap that crossed_twist accepts from g alone
    # must be a witness itself by a full check against the listed Aut(N)
    gate = realize._check_tables
    realize._check_tables = lifted_check_tables
    rng = random.Random(32)
    witnesses, swaps, accepted, bad = 0, 0, 0, []
    try:
        orders = [n for n in range(1, 251) if is_squarefree(n)]
        for name, w in released(witness_cases, orders):
            witnesses += 1
            bad += [name] if law_differs(w) or not w.verify_law() else []
            for c in swap_mutants(w, rng, 5):
                swaps += 1
                bad += [f"{name} swap"] if law_differs(c) else []
                if realize.crossed_twist(c.domain, c.n_group, c.g) is not None:
                    accepted += 1
                    bad += [] if listed_twist_witness(c) else [f"{name} accepted swap"]
    finally:
        realize._check_tables = gate
    tallied = f"{swaps - accepted} of {swaps} swaps rejected, {accepted} accepted, each a witness"
    return f"{witnesses} witnesses, {tallied}", bad


def bad_input():
    # the refusal battery in one capped child, as Tier-1 runs it: each
    # row against its golden line, the refusal contract and the 2 s bound
    faults = battery_faults("refusal", capped_batteries(["refusal"])["refusal"])
    return f"{len(faults)} commands", [(key[:60], found) for key, found in faults.items() if found]


def demos():
    # each demo's stdout byte-identical to its file in demos/expected
    scripts = sorted((ROOT / "demos").glob("*.py"))
    bad = []
    for script in scripts:
        out = subprocess.run([sys.executable, script], stdout=subprocess.PIPE, check=True).stdout
        expected = (ROOT / "demos" / "expected" / f"{script.stem}.txt").read_bytes()
        if out != expected:
            diff = difflib.unified_diff(
                expected.decode().splitlines(True), out.decode().splitlines(True), "expected", script.name
            )
            sys.stdout.writelines(diff)
            bad.append(script.name)
    return f"{len(scripts)} demos", bad


def bench_smoke():
    # perfbench/run.py as it stands: --trace 0 reports the six end-to-end
    # metrics, printed here; --trace 1 reports the per-layer ones; every
    # run must be correct
    workloads = ("hol-braces", "cocycle-verdicts", "cocycle-counts", "cli-store")
    bad = []
    for workload in workloads:
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
                 "--seconds", "3", "--trace", trace],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
            )
            result = json.loads(proc.stdout.splitlines()[-1])
            if trace == "0":
                for name, metric in result["metrics"].items():
                    print(f"{workload} {name} = {metric['value']:.4g} {metric['unit']}")
            if result["correct"] is not True:
                bad.append(f"{workload} --trace {trace}")
    return f"{2 * len(workloads)} runs", bad


def transport():
    # transport_characteristic, which checks the pulled-back witness with
    # crossed_twist, against engine_transport, which runs the cocycle
    # engine on (H, M), on the lift: every realizable catalog pair at
    # twice-odd squarefree orders up to 250, the pairs t002 reaches at
    # n <= 125, and each characteristic M of its N, each order released
    # before the next
    gate = realize._check_tables
    realize._check_tables = lifted_check_tables
    try:
        orders = [n for n in range(2, 251, 4) if is_squarefree(n)]
        checked, bad = tally(released(transport_cases, orders), transport_differs)
    finally:
        realize._check_tables = gate
    return f"{checked} transports", bad


def count_code_lines(text):
    # lines holding a token other than a comment, layout or a docstring
    # (a string that is a statement of its own)
    layout = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(text).readline)
              if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for before, token, after in zip([None, *tokens], tokens, tokens[1:]):
        docstring = (
            token.type == tokenize.STRING and after.type == tokenize.NEWLINE
            and (before is None or before.type in layout)
        )
        if token.type not in layout and not docstring:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def code_lines():
    # the code lines of src/, tests/ and perfbench/, the count the change
    # log and the roadmap quote; only a file that does not tokenize fails
    counts, bad = {}, []
    for top in ("src", "tests", "perfbench"):
        counts[top] = 0
        for path in sorted((ROOT / top).rglob("*.py")):
            try:
                counts[top] += count_code_lines(path.read_text())
            except (tokenize.TokenError, SyntaxError):
                bad.append(str(path.relative_to(ROOT)))
    return ", ".join(f"{top}/ {n}" for top, n in counts.items()) + " code lines", bad


CHECKS = {
    "code-lines": code_lines,
    "hol-d30": hol_d30,
    "coordinate-search": coordinate_search,
    "braces": braces,
    "dihedral-66": dihedral_66,
    "large-catalogs": large_catalogs,
    "shapes": shapes,
    "characteristic": characteristic,
    "element-orders": element_orders,
    "walk-kernel": walk_kernel,
    "table-kernel": table_kernel,
    "aut-closed-form": aut_closed_form,
    "hom-orbit-reps": hom_orbit_reps,
    "cocycle-kernel": cocycle_kernel,
    "witness-law": witness_law,
    "transport": transport,
    "bad-input": bad_input,
    "demos": demos,
    "bench-smoke": bench_smoke,
}


def main(argv):
    if len(argv) != 1 or argv[0] not in [*CHECKS, "all"]:
        sys.exit(f"usage: ci_checks.py {{{'|'.join(CHECKS)}|all}}")
    if argv[0] == "all":
        failed = [name for name in CHECKS if subprocess.run([sys.executable, __file__, name]).returncode]
        print("failed:", failed)
        return 1 if failed else 0
    started = time.perf_counter()
    summary, bad = CHECKS[argv[0]]()
    seconds = time.perf_counter() - started
    print(f"{argv[0]}: {summary}; that differ: {bad}; {seconds:.1f} s, peak RSS {peak_rss_mb():.0f} MB")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
