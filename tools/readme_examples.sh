#!/bin/sh
# Run the eight command-line examples of README.md against this checkout's
# src/ and write what each one prints into DIR:
#   <name>.out    stdout
#   <name>.err    stderr
#   zeros.csv, zeros.hist.csv   the files the zeros example writes
# Outputs are deterministic, so two checkouts compare with one command:
#   tools/readme_examples.sh /tmp/a   (in checkout A)
#   tools/readme_examples.sh /tmp/b   (in checkout B)
#   diff -r /tmp/a /tmp/b
set -eu

if [ "$#" -ne 1 ]; then
    echo "usage: $0 DIR" >&2
    exit 2
fi
mkdir -p "$1"
out=$(cd "$1" && pwd)
root=$(cd "$(dirname "$0")/.." && pwd)
export PYTHONPATH="$root/src"

run() {
    name=$1
    shift
    echo "$name" >&2
    (cd "$out" && python3 -m skewrh.cli "$@" >"$name.out" 2>"$name.err")
}

run moments moments --potential 0,0,0.5 --n 6
run polys polys --potential 0,0,0.5,0,1 --kmax 8 --format json
run gram gram --potential 0,0,0.5,0,1 --kmax 8
run zeros zeros --potential 0,0,0.5,0,1 --kmax 4 --out zeros.csv
run rh-verify-even rh-verify --potential 0,0,0.5 --k 2 --parity even
run rh-verify-odd rh-verify --potential 0,0,0.5 --k 2 --parity odd \
    --free-params 0.3+0.2j,1.5,-0.4
run pfaff-check pfaff-check --potential 0,0,0.5,0,1 --kmax 6 --flow-j 2,4
run pfaffian pfaffian --potential 0,0,0.5 --n 8
