#!/bin/sh
# Every backticked `name()` or `Type::name` (also `Type::{a, b}`) in
# DESIGN.md, README.md and EXPERIMENTS.md whose segments do not all
# appear as words in a tracked file under crates/, and every backticked
# `*.rs`, `*.sh`, `*.toml`, `*.md` or `*.yml` path there that no tracked
# file's path ends with: the prose names something that does not exist
# (renamed, moved, deleted, or misspelt). One row per span: where, the
# span, the missing segment (or "no such file"). Fenced code blocks are
# skipped. Exits 1 when it prints a row. A word match is textual, so a
# name reused elsewhere hides a row.
# usage: scripts/doc-names.sh
set -eu
cd "$(git rev-parse --show-toplevel)"
{
    git ls-files | awk '{ print "\t" $0 }'
    git grep -n -I -e '' -- DESIGN.md README.md EXPERIMENTS.md crates
} | awk '
function check(seg, where, span) {
    sub(/\(.*\)$/, "", seg); gsub(/^ +| +$/, "", seg)
    if (seg !~ /^[A-Za-z_][A-Za-z_0-9]*$/) return
    wanted[++n] = where "\t`" span "`\t" seg
}
/^\t/ { # a tracked file: every tail of its path after a "/" is known
    k = split(substr($0, 2), dir, "/"); tail = dir[k]; tracked[tail] = 1
    for (i = k - 1; i >= 1; i--) { tail = dir[i] "/" tail; tracked[tail] = 1 }
    next
}
{
    c1 = index($0, ":"); path = substr($0, 1, c1 - 1)
    rest = substr($0, c1 + 1); c2 = index(rest, ":")
    line = substr(rest, 1, c2 - 1); text = substr(rest, c2 + 1)
    if (path ~ /^crates\//) {
        k = split(text, word, /[^A-Za-z_0-9]+/)
        for (i = 1; i <= k; i++) if (word[i] != "") known[word[i]] = 1
        next
    }
    if (text ~ /^ *```/) { fenced[path] = !fenced[path]; next }
    if (fenced[path]) next
    k = split(text, part, "`")
    for (i = 2; i < k; i += 2) {
        span = part[i]
        if (span ~ /^[A-Za-z0-9_.\/-]+\.(rs|sh|toml|md|yml)$/) {
            files[++nf] = path ":" line "\t`" span "`"; file[nf] = span
            continue
        }
        s = span; called = sub(/\(.*\)$/, "", s)
        brace = ""
        if (match(s, /::\{[^}]*\}$/)) {
            brace = substr(s, RSTART + 3, RLENGTH - 4); s = substr(s, 1, RSTART - 1)
        }
        if (s !~ /^[A-Za-z_][A-Za-z_0-9]*(::[A-Za-z_][A-Za-z_0-9]*)*$/) continue
        if (!called && brace == "" && s !~ /::/) continue
        m = split(s, seg, "::")
        for (j = 1; j <= m; j++) check(seg[j], path ":" line, span)
        m = split(brace, seg, ",")
        for (j = 1; j <= m; j++) {
            l = split(seg[j], sub_seg, "::")
            for (q = 1; q <= l; q++) check(sub_seg[q], path ":" line, span)
        }
    }
} END {
    for (i = 1; i <= nf; i++) if (!(file[i] in tracked)) { print files[i] "\tno such file"; rows++ }
    for (i = 1; i <= n; i++) {
        split(wanted[i], f, "\t")
        if (!(f[3] in known)) { print wanted[i]; rows++ }
    }
    exit rows > 0
}'
