.PHONY: all build test check lint crash bench gates shell clean

all: build

build:
	dune build

test:
	dune runtest

# Repo lint gate: bans catch-all exception handlers, Obj.magic and
# assert-false dispatch fallbacks (see bin/lint.ml for the rules and
# the "lint: allow" waiver syntax).
lint:
	dune build bin/lint.exe
	dune exec bin/lint.exe -- lib bin

# Seeded crash matrix: crash the durability workload at every WAL
# injection point (clean + torn tails + sampled bit flips), recover,
# and verify integrity / all-or-nothing commits / snapshot history.
# A second lifecycle phase crashes CHECKPOINT and VACUUM SNAPSHOTS at
# every point and verifies recovery lands on the old archive or the
# new one — never a hybrid — with bounded post-checkpoint replay.
crash:
	dune exec bin/crash_matrix.exe -- --seed 42
	dune exec bin/crash_matrix.exe -- --seed 42 --group-commit 3

# The one-stop gate: everything compiles (including tests and benches),
# the lint gate is clean, and the full suite passes.
check: lint
	dune build @all
	dune runtest

bench:
	dune exec bench/main.exe

# Regression gates (bench/gates.ml): scoped-instrumentation overhead,
# optimizer counters/identity/latency, AS OF read scaling and parallel
# RQL identity; exits 1 if any bound is violated.
gates:
	dune exec bench/main.exe -- --only gates

shell:
	dune exec bin/rql_shell.exe

clean:
	dune clean
