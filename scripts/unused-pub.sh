#!/bin/sh
# Every `pub fn` under crates/*/src (vendored rand/proptest/epoll-shim left
# out) whose name appears in no other tracked file of crates/ src/ tests/
# examples/ bench/src/: candidates for losing their `pub`, or going altogether.
# A name match is textual, so trait methods and names reused elsewhere are
# false positives either way; the list is a prompt, not a verdict. One row per
# name: the name, then everywhere it is declared.
# usage: scripts/unused-pub.sh
set -eu
cd "$(git rev-parse --show-toplevel)"
git grep -n -I -e '' -- crates src tests examples bench/src | awk '{
    c1 = index($0, ":"); path = substr($0, 1, c1 - 1)
    rest = substr($0, c1 + 1); c2 = index(rest, ":")
    line = substr(rest, 1, c2 - 1); text = substr(rest, c2 + 1)
    if (path ~ /^crates\/[^\/]+\/src\// && path !~ /^crates\/(rand|proptest|epoll-shim)\// &&
        match(text, /^[ \t]*pub (const |unsafe )*fn [A-Za-z_0-9]+/)) {
        name = substr(text, RSTART, RLENGTH); sub(/.* /, "", name)
        if (!(name in sites)) order[++names] = name
        sites[name] = sites[name] " " path ":" line
    }
    n = split(text, word, /[^A-Za-z_0-9]+/)
    for (i = 1; i <= n; i++) {
        w = word[i]
        if (w == "") continue
        if (!(w in home)) home[w] = path
        else if (home[w] != path) shared[w] = 1
    }
} END {
    for (i = 1; i <= names; i++) if (!(order[i] in shared)) print order[i] sites[order[i]]
}'
