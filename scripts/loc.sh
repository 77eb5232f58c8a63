#!/bin/sh
# Rust line counts per crate at HEAD and at a base revision, and the delta;
# per file instead, over the files under the given paths, when paths follow.
# "all" is every line of every .rs file. "code" leaves out blank lines, `//`
# comment lines, everything under tests/ benches/ examples/, and each file
# from its first #[cfg(test)] on (always the last item of a file here).
# usage: scripts/loc.sh [base-rev [path...]]        (default: origin/main)
set -eu
base=${1:-origin/main}
[ $# -eq 0 ] || shift
unit=file w=44; [ $# -gt 0 ] || { unit=crate w=16; set -- '*.rs'; }
count() { # <side> <rev> <path...>: one "<side> <unit> <all> <code>" line per unit
    side=$1 rev=$2; shift 2
    git grep -I -e '' "$rev" -- "$@" | awk -v side="$side" -v skip="${#rev}" -v unit="$unit" '{
        line = substr($0, skip + 2); colon = index(line, ":")
        path = substr(line, 1, colon - 1); text = substr(line, colon + 1)
        split(path, dir, "/"); key = dir[1] == "crates" ? dir[2] : dir[1]
        if (unit == "file") key = path
        all[key]++
        if (path ~ /(^|\/)(tests|benches|examples)\// || intest[path]) next
        if (text ~ /^[ \t]*#\[cfg\(test\)\]/) { intest[path] = 1; next }
        if (text !~ /^[ \t]*($|\/\/)/) code[key]++
    } END { for (c in all) print side, c, all[c], code[c] + 0 }'
}
printf "%-${w}s %8s %8s %7s %8s %8s %7s\n" \
    "$unit" all@base all@head delta code@base code@head delta
{ count base "$base" "$@"; count head HEAD "$@"; } | awk -v w="$w" '{
    all[$1, $2] = $3; code[$1, $2] = $4; crates[$2] = 1
} END {
    for (c in crates) {
        row(c, all["base", c], all["head", c], code["base", c], code["head", c])
        ab += all["base", c]; ah += all["head", c]
        cb += code["base", c]; ch += code["head", c]
    }
    row("~total", ab, ah, cb, ch)
}
function row(name, ab, ah, cb, ch) {
    printf "%-" w "s %8d %8d %+7d %8d %8d %+7d\n", name, ab, ah, ah - ab, cb, ch, ch - cb
}' | sort
