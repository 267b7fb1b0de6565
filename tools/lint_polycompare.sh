#!/bin/sh
# lint-polycompare: no polymorphic compares in the integer-kernel hot paths.
#
# Polymorphic `compare` (= Stdlib.compare) walks the runtime representation
# of its arguments: on boxed floats and tuples it is the single largest cost
# of a million-element sort, and on abstract types it is silently wrong.
# The hot-path directories (lib/graphlib, lib/congest, and lib/asynch, whose
# event loop runs once per simulated event) must use monomorphic
# comparators — Int.compare, Float.compare, String.compare, or an explicit
# record/pair comparator.
#
# Two passes:
# 1. A grep fails on any new bare `compare` / `Stdlib.compare` identifier
#    (word matches only: `Int.compare` has a `.` before the word and does
#    not match; names like `compare_foo` or words like `comparison` do not
#    match either).
# 2. An `nm -u` pass over the native objects of the three libraries fails on
#    any reference to the runtime's generic comparison or generic Bigarray
#    primitives.  These appear when the type checker generalises a
#    comparison or a Bigarray argument — an unannotated `<` on a
#    polymorphic key, or a Bigarray parameter whose kind is not pinned —
#    which the grep cannot see.  The objects must be built first
#    (`make lint-polycompare` does); missing objects or a missing `nm`
#    fail the lint rather than pass it.
set -eu
cd "$(dirname "$0")/.."
matches=$(grep -nE '(^|[^.[:alnum:]_])(compare|Stdlib\.compare)([^[:alnum:]_]|$)' \
  lib/graphlib/*.ml lib/congest/*.ml lib/asynch/*.ml || true)
if [ -n "$matches" ]; then
  echo "lint-polycompare: polymorphic compare in hot-path directories:" >&2
  echo "$matches" >&2
  echo "lint-polycompare: use Int.compare / Float.compare / an explicit" >&2
  echo "monomorphic comparator instead (see DESIGN.md section 15)" >&2
  exit 1
fi

if ! command -v nm >/dev/null 2>&1; then
  echo "lint-polycompare: nm not found; cannot check compiled objects" >&2
  exit 1
fi
forbidden='_?(caml_ba_get_[0-9]+|caml_ba_set_[0-9]+|caml_lessthan|caml_lessequal|caml_greaterthan|caml_greaterequal|caml_compare|caml_equal|caml_notequal)'
hits=""
for lib in graphlib congest asynch; do
  dir="_build/default/lib/$lib/.$lib.objs/native"
  for obj in "$dir"/*.o; do
    if [ ! -f "$obj" ]; then
      echo "lint-polycompare: no native objects in $dir" >&2
      echo "(build them first: dune build lib/$lib/$lib.cmxa)" >&2
      exit 1
    fi
    undef=$(nm -u "$obj")
    syms=$(printf '%s\n' "$undef" | awk '{ print $NF }' | grep -xE "$forbidden" || true)
    for s in $syms; do
      hits="$hits
$obj: $s"
    done
  done
done
if [ -n "$hits" ]; then
  echo "lint-polycompare: generic comparison / Bigarray primitives in hot-path objects:$hits" >&2
  echo "lint-polycompare: annotate the compared or Bigarray-typed values so" >&2
  echo "the compiler specialises them (see DESIGN.md section 15)" >&2
  exit 1
fi
echo "lint-polycompare: OK (lib/graphlib, lib/congest, lib/asynch: no polymorphic compare in source or objects)"
