#!/usr/bin/env bash
# Report of public names that no other production file uses.
#
#   tools/pub_callers.sh [allowlist=tools/pub_callers.allow]
#
# Lists every `pub` item (fn, struct, enum, trait, type, const, static,
# mod) declared under crates/*/src outside `#[cfg(test)]` that no other
# production file names. Production files are crates/*/src (the bench bins
# included), examples/ and benchmark/src. Comments, string literals,
# `#[cfg(test)]` items and whole `pub use` statements (every line of a
# multi-line one) are stripped before names are counted: a doc link or a
# re-export is not a use. A type that another public signature of its file
# names (a return type, a field type) is not reported: it is reachable
# through that signature, and goes when the signature does. For each
# reported item it prints the mentions left in its own file and in tests
# (tests/, crates/*/tests and the `#[cfg(test)]` parts of crates/*/src),
# then the allowlist's reason for keeping it, or UNLISTED; then any
# allowlist line that matched nothing.
#
# It always exits 0; tier1.sh fails when it prints an UNLISTED name or a
# stale line. The match is by name, so a name that another file uses for
# something else counts as used. Allowlist lines are `<key> <reason>`; a
# key is `crate::module::[Type::]name` as printed, or a prefix ending in
# `::*`.
set -euo pipefail
cd "$(dirname "$0")/.."
command -v python3 >/dev/null || { echo "tools/pub_callers.sh: python3 not found" >&2; exit 2; }

python3 - "${1:-tools/pub_callers.allow}" <<'PY'
import glob, os, re, sys
from collections import Counter

def clean(src):
    """Source with comments and literal contents removed; newlines kept."""
    out, i, n = [], 0, len(src)
    while i < n:
        c = src[i]
        if src.startswith('//', i):
            j = src.find('\n', i)
            i = n if j < 0 else j
        elif src.startswith('/*', i):
            depth, i = 1, i + 2
            while i < n and depth:
                if src.startswith('/*', i):
                    depth, i = depth + 1, i + 2
                elif src.startswith('*/', i):
                    depth, i = depth - 1, i + 2
                else:
                    out.append('\n' if src[i] == '\n' else '')
                    i += 1
        elif re.match(r'b?r#*"', src[i:i + 8]) and (i == 0 or not (src[i - 1].isalnum() or src[i - 1] == '_')):
            m = re.match(r'b?r(#*)"', src[i:])
            end = src.find('"' + m.group(1), i + m.end())
            end = n if end < 0 else end + 1 + len(m.group(1))
            out.append('""' + '\n' * src.count('\n', i, end))
            i = end
        elif c == '"':
            j = i + 1
            while j < n and src[j] != '"':
                j += 2 if src[j] == '\\' else 1
            out.append('""' + '\n' * src.count('\n', i, j))
            i = j + 1
        elif c == "'":
            m = re.match(r"'(\\.[^']*|[^\\'])'", src[i:])
            if m:
                out.append("' '")
                i += m.end()
            else:
                out.append(c)
                i += 1
        else:
            out.append(c)
            i += 1
    return ''.join(out)

def item_end(text, start):
    """Offset just past the item starting at `start` (brace-matched, or `;`)."""
    depth, i = 0, start
    while i < len(text):
        c = text[i]
        if c == '{':
            depth += 1
        elif c == '}':
            depth -= 1
            if depth == 0:
                return i + 1
        elif c == ';' and depth == 0:
            return i + 1
        i += 1
    return len(text)

def blank(text, a, b):
    return text[:a] + re.sub(r'[^\n]', ' ', text[a:b]) + text[b:]

CFG_TEST = re.compile(r'#\[cfg\(test\)\]')
PUB_USE = re.compile(r'\bpub(\([^)]*\))?\s+use\b')

def split(path):
    """(production text, test text) of a source file."""
    text = clean(open(path, encoding='utf-8').read())
    tests = []
    while True:
        m = CFG_TEST.search(text)
        if not m:
            break
        end = item_end(text, m.end())
        tests.append(text[m.start():end])
        text = blank(text, m.start(), end)
    while True:
        m = PUB_USE.search(text)
        if not m:
            break
        text = blank(text, m.start(), item_end(text, m.end()))
    return text, '\n'.join(tests)

def rel_module(path):
    crate = path.split('/')[1]
    parts = path.split('/src/', 1)[1][:-3].split('/')
    if parts[-1] in ('lib', 'main', 'mod'):
        parts = parts[:-1]
    return '::'.join([crate] + parts)

TYPES = ('struct', 'enum', 'trait', 'type', 'union')
DECL = re.compile(r'^[ \t]*pub[ \t]+(?:(?:const|async|unsafe|extern[ \t]+"")[ \t]+)*'
                  r'(fn|struct|enum|trait|type|const|static|mod|union)[ \t]+(\w+)', re.M)
IMPL = re.compile(r'^[ \t]*impl\b(?:\s*<[^{;]*?>)?\s+(?:[\w:<>, &\']+\s+for\s+)?([\w:]+)[^{;]*\{', re.M)

src_files = sorted(glob.glob('crates/*/src/**/*.rs', recursive=True))
prod_files = src_files + sorted(glob.glob('examples/**/*.rs', recursive=True)) \
    + sorted(glob.glob('benchmark/src/**/*.rs', recursive=True))
test_files = sorted(glob.glob('tests/**/*.rs', recursive=True)) \
    + sorted(glob.glob('crates/*/tests/**/*.rs', recursive=True))

prod, test_text = {}, {}
for f in prod_files:
    prod[f], test_text[f] = split(f)
for f in test_files:
    test_text[f] = clean(open(f, encoding='utf-8').read())

allow = {}
allow_path = sys.argv[1]
if os.path.exists(allow_path):
    for line in open(allow_path, encoding='utf-8'):
        line = line.strip()
        if line and not line.startswith('#'):
            key, _, reason = line.partition(' ')
            allow[key] = reason.strip()

matched = set()

def reason_for(key):
    if key in allow:
        matched.add(key)
        return allow[key]
    for k, r in allow.items():
        if k.endswith('::*') and key.startswith(k[:-1]):
            matched.add(k)
            return r
    return None

WORD = re.compile(r'\b[A-Za-z_]\w*\b')
words = {f: Counter(WORD.findall(t)) for f, t in prod.items()}
test_words = Counter()
for t in test_text.values():
    test_words.update(WORD.findall(t))
users = Counter()
for f in prod_files:
    users.update(words[f].keys())

def owner_of(impls, at):
    owners = [t for a, b, t in impls if a < at < b]
    return owners[-1] if owners else None

def exposing(text, impls):
    """Per public signature (fn header, type body, alias), the names it
    mentions and the type it belongs to; a type is exposed by the signatures
    of other items, not by its own."""
    parts = []
    for m in DECL.finditer(text):
        kind = m.group(1)
        if kind == 'fn':
            end = re.compile(r'[{;]').search(text, m.end()).start()
            parts.append((owner_of(impls, m.start()), set(WORD.findall(text[m.end():end]))))
        elif kind in ('struct', 'enum', 'union', 'type', 'const', 'static'):
            body = text[m.end():item_end(text, m.end())]
            parts.append((m.group(2), set(WORD.findall(body))))
    return parts

reported, unlisted = 0, 0
for f in src_files:
    text = prod[f]
    impls = [(m.start(), item_end(text, m.end() - 1), m.group(1).split('::')[-1])
             for m in IMPL.finditer(text)]
    parts = exposing(text, impls)
    for m in DECL.finditer(text):
        kind, name = m.group(1), m.group(2)
        if users[name] > (1 if words[f][name] else 0):
            continue
        if kind in TYPES and any(o != name and name in ws for o, ws in parts):
            continue
        owner = owner_of(impls, m.start())
        key = '::'.join([rel_module(f)] + ([owner] if owner else []) + [name])
        line = text.count('\n', 0, m.start()) + 1
        reason = reason_for(key)
        reported += 1
        unlisted += reason is None
        print(f'{f}:{line}: {kind} {key}  in-file={words[f][name] - 1} tests={test_words[name]}  '
              + (f'stays: {reason}' if reason else 'UNLISTED'))
for k in sorted(set(allow) - matched):
    print(f'{allow_path}: {k} matches no reported name (stale line)')
print(f'{reported} names without another production caller, {unlisted} not on the allowlist')
PY
