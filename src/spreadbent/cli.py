"""Command-line driver: list candidate pools, build single functions,
run the two benchmark sweeps, and self-check the whole pipeline.

Exit codes: 0 success, 1 self-check failure or a dead sweep worker (kill
-9, the OOM killer), reported in one error line, 2 bad arguments (any
ValueError, SpreadbentError among them, and an --out path that cannot be
written), 3 construction rejected (ConstructionRejected: a wrong family
size, a zero polynomial, or two members whose kernels share nonzero
vectors, which a shared factor always causes), 141 stdout closed by
its reader, as `| head` does (the status a shell reports for a process
that SIGPIPE ends); the sweep then stops once its workers finish the
batches they hold.

Data goes to stdout or --out; progress goes to stderr. build prints the
fields of families.analyze plus the printed anf, and table1 and table2 are
two presets of families.sweep, whose rows are byte-identical for every
--jobs setting. Their output is streamed: the CSV header is written at once
and each row as it is analyzed, through the stream's own buffer, so memory
does not grow with the catalog. On exit 3 stdout therefore holds a partial CSV. --out is
replaced only on success: the rows go to a temporary file beside it, and a
failed or interrupted run leaves an existing file untouched.
verify never analyzes, so it does no rank work. main builds the argument
parser once per process and reuses it for every call; a parse keeps no
state in it, so each call's reply depends on its arguments alone.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import os
import sys
from collections import Counter

from . import boolfun, rank2
from .boolfun import algebraic_degree, anf, format_anf, is_bent
from .errors import ConstructionRejected, SpreadbentError, check_int
from .families import (
    TAG_PRODUCT,
    TAG_SQUARE,
    FamilySpec,
    analyze,
    build_bent,
    candidate_pool,
    coprime_subsets,
    enumerate_families,
    manifest_line,
    nonzero_constant_members,
    sweep,
    verify_desarguesian_equivalence,
)
from .gf2e import describe, fe_inv, fe_mul, field
from .lrs import Subspace, build_matrix, kernel
from .poly import (
    closed_form_family_count,
    enumerate_irreducibles,
    format_poly,
    gauss_count,
    monic,
    parse_poly,
    poly,
    poly_gcd,
)

CSV_HEADER = (
    "family_id,type,l,b,polys,tt_hex,weight,degree,nonlinearity,rank,classification"
).split(",")


# ---------------------------------------------------------------- sweeps

# The two benchmark sweeps: (l, b, family sizes) of the catalogs each runs.
TABLES = {"table1": (4, 1, (8,)), "table2": (2, 2, (8, 9))}


def _histogram_text(rows, l, b):
    ranks = {"PS-": Counter(), "PS+": Counter()}
    for row in rows:
        ranks[row[1]][row[9]] += 1
    blocks = []
    for spread_type, counts in ranks.items():
        if not counts:
            continue
        lines = [f"{spread_type} rank distribution (l={l}, b={b}, n={2 * l * b})"]
        lines += [f"  rank {rank}: {counts[rank]}" for rank in sorted(counts)]
        lines.append(f"  total: {counts.total()}")
        blocks.append("\n".join(lines))
    return "\n".join(blocks) + "\n"


def write_csv(rows, out):
    """Write the CSV header, then each row as it arrives, to the text stream
    out, whose own buffer batches the writes: a sweep's output is never
    held whole."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(rows)


@contextlib.contextmanager
def _destination(path):
    """The text stream a table goes to: stdout, or the regular file at path,
    replaced only on success. Output goes to a temporary file beside it,
    which replaces it once the body returns and is deleted on any exception,
    KeyboardInterrupt included. A path that cannot be written raises
    SpreadbentError before the body runs."""
    if path is None:
        yield sys.stdout
        return
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        raise SpreadbentError(f"cannot write {path}: not a regular file")
    directory, name = os.path.split(target)
    tmp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
    try:
        fh = open(tmp, "x", encoding="utf-8", newline="")
    except OSError as exc:
        raise SpreadbentError(f"cannot write {path}: {exc.strerror}") from None
    try:
        with fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise
    print(f"wrote {path}", file=sys.stderr)


def _resolve_jobs(requested):
    """Worker count for --jobs: 0 means every usable CPU, and a larger
    request is lowered to that count, since rows are the same for every
    jobs >= 1. Usable CPUs are those of this process's affinity mask."""
    check_int("--jobs", requested, 0)
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        usable = os.cpu_count() or 1
    if requested > usable:
        print(f"note: --jobs {requested} lowered to the {usable} usable CPUs", file=sys.stderr)
    return min(requested, usable) or usable


# ---------------------------------------------------------------- commands

def _checked_field(l, b):
    """GF(2^l) for a shape within boolfun.MAX_ARITY, else SpreadbentError."""
    if l < 1 or b < 1:
        raise SpreadbentError("--l and --b must be >= 1")
    if 2 * l * b > boolfun.MAX_ARITY:
        raise SpreadbentError(
            f"l*b = {l * b} exceeds the supported capacity l*b <= {boolfun.MAX_ARITY // 2} "
            f"(function arity n = 2*l*b <= {boolfun.MAX_ARITY})"
        )
    return field(l)


def cmd_polys(args):
    spec = _checked_field(args.l, args.b)
    pool = candidate_pool(spec, args.b)
    breakdown = ", ".join(f"{tag}: {n}" for tag, n in Counter(pool.tags).items())
    print(f"# pool {describe(spec)} b={args.b}: {len(pool.members)} members ({breakdown})")
    for p, tag in zip(pool.members, pool.tags):
        print(f"{format_poly(p)}  {tag}")
    return 0


def cmd_build(args):
    spec = _checked_field(args.l, args.b)
    n = 2 * args.l * args.b
    if n > rank2.MAX_RANK_ARITY:
        # the bit-packed matrix takes 2^(2n-3) bytes, and the rank sweeps its 2^n columns
        raise SpreadbentError(
            f"build at l*b = {n // 2} (n = {n}) is refused: its 2^{n} x 2^{n} "
            f"development matrix is {2 ** (2 * n - 23)} MiB bit-packed, and its rank "
            f"sweeps {1 << n} columns"
        )
    plus = args.type == "ps+"
    if args.family_id is not None:
        pool = candidate_pool(spec, args.b)
        catalog = enumerate_families(pool, (1 << (args.l * args.b - 1)) + plus)
        if not 0 <= args.family_id < catalog.size:
            raise SpreadbentError(
                f"family id {args.family_id} out of range: the l={args.l} b={args.b} "
                f"{catalog.spread_type} catalog has {catalog.size} families"
            )
        item = next(catalog.walk(args.family_id))
        fs = catalog.family(*item)
        (tt,) = catalog.build([item])
    else:
        polys = tuple(parse_poly(spec, text) for text in args.polys.split(";"))
        fs = FamilySpec(
            l=args.l, b=args.b, polys=polys,
            spread_type="PS+" if plus else "PS-", family_id=-1,
        )
        tt = build_bent(fs)
    # the CSV's analysis columns, with bent and anf printed before rank
    fields = list(zip(CSV_HEADER[5:], analyze(tt)))
    fields[4:4] = [("bent", "true"), ("anf", format_anf(anf(tt)))]
    print(manifest_line(fs))
    for key, value in fields:
        print(f"{key}={value}")
    return 0


def cmd_table(args):
    from concurrent.futures.process import BrokenProcessPool  # deferred: 8 ms to import

    jobs = _resolve_jobs(args.jobs)
    l, b, sizes = TABLES[args.command]
    try:
        with _destination(args.out) as out:
            with contextlib.closing(sweep(l, b, sizes, jobs)) as rows:
                if args.format == "csv":
                    write_csv(rows, out)
                else:
                    out.write(_histogram_text(rows, l, b))
    except BrokenProcessPool:
        print("error: a sweep worker died; the sweep stopped", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------- verify

def _nonzero_polys(spec, maxdeg):
    # distinct coefficient tuples strip to distinct polynomials
    polys = (poly(spec, coeffs) for coeffs in itertools.product(range(spec.q), repeat=maxdeg + 1))
    return sorted((p for p in polys if p.coeffs), key=lambda p: (len(p.coeffs), p.coeffs))


def _check_field_axioms():
    for l in (1, 2, 3, 4):
        spec = field(l)
        elems = range(spec.q)
        # the product table, one fe_mul per entry: row x holds x*y for
        # every y, so row x*y holds (x*y)*z for every z
        mul = [[fe_mul(spec, x, y) for y in elems] for x in elems]
        for x, row in enumerate(mul):
            for y in elems:
                if row[y] != mul[y][x]:
                    return False, f"commutativity fails in GF(2^{l})"
                if mul[row[y]] != [row[yz] for yz in mul[y]]:
                    return False, f"associativity fails in GF(2^{l})"
        for x in range(1, spec.q):
            if fe_mul(spec, x, fe_inv(spec, x)) != 1:
                return False, f"inverse fails for {x} in GF(2^{l})"
    return True, "l=1..4 exhaustive"


def _check_goldens():
    spec = field(1)
    minus = (poly(spec, (1, 0, 1)), poly(spec, (1, 1, 1)))
    plus = minus + (poly(spec, (0, 0, 1)),)
    tt_g = build_bent(FamilySpec(1, 2, minus, "PS-", -1))
    tt_h = build_bent(FamilySpec(1, 2, plus, "PS+", -1))
    if tt_g.hex() != "0635":
        return False, f"negative-type table is {tt_g.hex()}, want 0635"
    if tt_h.hex() != "f635":
        return False, f"positive-type table is {tt_h.hex()}, want f635"
    if not (is_bent(tt_g) and is_bent(tt_h)):
        return False, "a golden table is not bent"
    if anf(tt_g).monomials() != [5, 6, 10]:
        return False, f"negative-type anf monomials {anf(tt_g).monomials()}"
    if anf(tt_h).monomials() != [0, 4, 5, 6, 8, 10, 12]:
        return False, f"positive-type anf monomials {anf(tt_h).monomials()}"
    return True, "n=4 tables 0635/f635 with matching anf"


def _check_triangle(spec, maxdeg):
    # Nonzero scalars change no gcd, gcd(c*F, d*G) = gcd(F, G), and no band
    # row space, so no kernel either: kernel returns the orthogonal
    # complement of the row space. Polynomials are grouped by monic form F,
    # whose kernel and band row-space masks are built once per window from
    # its degree up, and each multiple c*F is certified there by one span
    # equality. Euclid and the two mask ANDs then run once per pair of
    # forms, for every pair of their multiples: two bands stack to an
    # invertible Sylvester matrix when their row spaces meet only in zero,
    # as in lrs. Masks are keyed by coefficient tuples, which hash faster
    # than a Poly
    groups, masks = {}, {}
    for p in _nonzero_polys(spec, maxdeg):
        groups.setdefault(monic(p), []).append(p)
    for F, fs in groups.items():
        for b in range(max(len(F.coeffs) - 1, 1), maxdeg + 1):
            rows = build_matrix(F, b)
            span = Subspace(rows)
            for f in fs:
                if f.coeffs != F.coeffs and Subspace(build_matrix(f, b)) != span:
                    return False, (
                        f"{format_poly(f)} vs {format_poly(F)}: band row spaces differ at b={b}"
                    )
            masks[F.coeffs, b] = kernel(rows).mask, span.mask
    pairs = 0
    for (F, fs), (G, gs) in itertools.combinations_with_replacement(groups.items(), 2):
        # groups run by degree, so G's degree is the pair's window size
        b = len(G.coeffs) - 1
        if b == 0:
            continue
        (kf, rf), (kg, rg) = masks[F.coeffs, b], masks[G.coeffs, b]
        coprime = poly_gcd(F, G).coeffs == (1,)
        # bit 0 is the one bit two spaces that meet only in zero share
        invertible, disjoint = rf & rg == 1, kf & kg == 1
        if not (coprime == invertible == disjoint):
            return False, (
                f"{format_poly(F)} vs {format_poly(G)}: gcd=1 is {coprime}, "
                f"invertible {invertible}, disjoint kernels {disjoint}"
            )
        pairs += len(fs) * (len(fs) + 1) // 2 if fs is gs else len(fs) * len(gs)
    return True, f"{pairs} pairs agree"


def _check_irreducible_counts():
    for l in (1, 2):
        spec = field(l)
        for k in range(1, 5):
            expected = gauss_count(spec, k)
            got = len(enumerate_irreducibles(spec, k))
            if expected != got:
                return False, f"GF(2^{l}) degree {k}: formula {expected}, enumeration {got}"
    return True, "q in {2,4}, degrees 1..4"


def _check_closed_form(l, b):
    spec = field(l)
    closed = closed_form_family_count(spec, b)
    members = nonzero_constant_members(candidate_pool(spec, b))
    brute = sum(1 for _ in coprime_subsets(members, 1 << (l * b - 1)))
    if closed != brute:
        return False, f"closed form {closed} != exhaustive {brute}"
    return True, f"closed form {closed} == exhaustive {brute}"


def _largest_coprime_family(spec, b):
    # Pairwise coprime members share no irreducible factor, and a reducible
    # member of degree b has one of degree <= b/2: at most one member per
    # irreducible of degree b and one per irreducible of degree <= b/2.
    return gauss_count(spec, b) + sum(gauss_count(spec, k) for k in range(1, b // 2 + 1))


def _check_half_size_families():
    # the paper's degree theorem: a negative-type family needs q^b / 2
    # coprime degree-b members with nonzero constant term
    for l in (1, 2, 3, 4):
        spec = field(l)
        feasible = [b for b in range(1, 7) if 2 * _largest_coprime_family(spec, b) >= spec.q**b]
        if feasible != [1, 2]:
            return False, f"q={spec.q}: half-size families possible at b in {feasible}"
    return True, "q in {2,4,8,16}, b=1..6: possible only at b=1 and b=2"


def _check_graph_equivalence(m):
    if not verify_desarguesian_equivalence(m):
        return False, "kernel mismatch"
    return True, f"all window-1 kernels and functions match at m={m}"


def _check_window2_catalog():
    pool = candidate_pool(field(2), 2)
    observed = {}
    for spread_type, t, want in (("PS-", 8, (165, 3, 6)), ("PS+", 9, (55, 6, 3))):
        catalog = enumerate_families(pool, t)
        items = list(catalog.walk())
        supports = {tt.bits for tt in catalog.build(items)}
        no_product = with_square = without_square = 0
        for _, combo in items:
            tags = [pool.tags[i] for i in combo]
            if TAG_PRODUCT not in tags:
                no_product += 1
            elif TAG_SQUARE in tags:
                with_square += 1
            else:
                without_square += 1
        if len(supports) != catalog.size:
            return False, f"{spread_type}: duplicate supports among {catalog.size} families"
        got = (no_product, with_square, without_square)
        if got != want:
            return False, f"{spread_type}: buckets {got}, want {want}"
        observed[spread_type] = catalog.size
    if (observed["PS-"], observed["PS+"]) != (174, 64):
        return False, f"catalog sizes {observed}"
    return True, "174 = 165+3+6 and 64 = 55+6+3, all supports distinct"


def _check_window3_catalog():
    pool = candidate_pool(field(1), 3)
    minus = enumerate_families(pool, 4)
    plus = enumerate_families(pool, 5)
    if (minus.size, plus.size) != (5, 1):
        return False, f"counts ({minus.size}, {plus.size}), want (5, 1)"
    for catalog in (minus, plus):
        want_weight = 32 + (4 if catalog.spread_type == "PS+" else -4)
        items = list(catalog.walk())
        for (fid, _), tt in zip(items, catalog.build(items)):
            if tt.weight() != want_weight:
                return False, f"family {fid} weight {tt.weight()}"
            if not is_bent(tt):
                return False, f"family {fid} is not bent"
            if algebraic_degree(anf(tt)) != 3:
                return False, f"family {fid} degree != 3"
    return True, "5 negative + 1 positive, all bent of degree 3"


def cmd_verify(args):
    checks = [
        ("field axioms", _check_field_axioms),
        ("golden 16-bit tables", _check_goldens),
        ("coprimality triangle GF(2) deg<=3", lambda: _check_triangle(field(1), 3)),
        ("coprimality triangle GF(4) deg<=2", lambda: _check_triangle(field(2), 2)),
        ("irreducible counts vs enumeration", _check_irreducible_counts),
        ("family count q=2 b=2", lambda: _check_closed_form(1, 2)),
        ("family count q=4 b=2", lambda: _check_closed_form(2, 2)),
        ("half-size coprime families", _check_half_size_families),
        ("graph-subspace equivalence m=2", lambda: _check_graph_equivalence(2)),
        ("graph-subspace equivalence m=4", lambda: _check_graph_equivalence(4)),
        ("window-2 catalog", _check_window2_catalog),
        ("window-3 catalog", _check_window3_catalog),
    ]
    failures = 0
    for label, check in checks:
        try:
            ok, info = check()
        except SpreadbentError as exc:
            ok, info = False, f"{type(exc).__name__}: {exc}"
        suffix = f" ({info})" if info else ""
        print(f"{label}{suffix}: {'PASS' if ok else 'FAIL'}")
        sys.stdout.flush()
        if not ok:
            failures += 1
    return 1 if failures else 0


# ---------------------------------------------------------------- wiring

@functools.cache
def _build_parser():
    # built once per process: parse_args keeps no state between calls
    parser = argparse.ArgumentParser(
        prog="spreadbent",
        description="Bent functions from kernels of linear recurring sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p, type_flag=False):
        p.add_argument("--l", type=int, required=True, help="field extension degree")
        p.add_argument("--b", type=int, required=True, help="recurrence window size")
        if type_flag:
            p.add_argument("--type", choices=("ps-", "ps+"), default="ps-",
                           help="spread type (default ps-)")

    def add_output(p):
        p.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
        p.add_argument("--format", choices=("table", "csv"), default="table",
                       help="histogram table or full per-function CSV")
        p.add_argument("--jobs", type=int, default=0,
                       help="worker processes, at most the usable CPUs; 0 = all of them (the default)")

    p = sub.add_parser("polys", help="list the candidate polynomial pool")
    add_params(p)
    p.set_defaults(func=cmd_polys)

    p = sub.add_parser("build", help="build and analyze one function")
    add_params(p, type_flag=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--family-id", type=int, help="catalog index of the family")
    group.add_argument("--polys", help='semicolon-joined coefficient lists, e.g. "[1,0,1];[1,1,1]"')
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("table1", help="rank distribution of the full window-1 catalog at n=8")
    add_output(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("table2", help="rank distributions of both window-2 catalogs at n=8")
    add_output(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run the self-check suite")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConstructionRejected as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout, as `| head` does: stop without a
        # traceback, and point stdout at devnull so that flushing it at exit
        # cannot raise again
        with contextlib.suppress(AttributeError, OSError, ValueError):  # no descriptor
            fd = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return 141


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
