#!/usr/bin/env python3
"""Symbolize and summarize sigprof profiles.

    python3 report.py [--through REGEX] [--callers REGEX]... FILE...

Each FILE is one process's $SIGPROF_OUT.<pid>; several are merged. An
address is mapped to its object's virtual address with `readelf -lW`,
then named with `addr2line -a -i -f -C`, so inlined functions count as
frames of their own. Where addr2line knows no name (stripped libc
internals, say), the nearest exported symbol below the address, from
`nm -D`, stands in.

Prints the share of samples each function holds as self time, then
inclusive time, then the callers of the functions that match each
--callers pattern, each table its ROWS largest entries. In the self
table a libc or Rust standard-library function at the top of a stack is
folded into its nearest caller outside both, shown as `caller >
function`; a caller listed is the nearest one outside both. --through keeps only the stacks that pass through a
function matching it.
"""

import argparse
import bisect
import collections
import os
import re
import struct
import subprocess

MARKER = b"--sigprof-stacks "
ROWS = 30
# Frames of libc and of Rust's standard library: folded into their
# nearest caller outside both in the self table, skipped as callers.
LIBRARY = re.compile(r"^libc:|^<*(\w+ as )?(core|alloc|std|hashbrown)::")


def run(*cmd):
    return subprocess.run(cmd, capture_output=True, text=True).stdout


def read_profile(path):
    """The executable file mappings and the raw stacks of one profile."""
    data = open(path, "rb").read()
    at = data.index(MARKER)
    maps = []
    for line in data[:at].decode(errors="replace").splitlines():
        f = line.split(None, 5)
        if len(f) == 6 and "x" in f[1] and f[5].startswith("/"):
            start, end = (int(x, 16) for x in f[0].split("-"))
            maps.append((start, end, int(f[2], 16), f[5]))
    maps.sort()
    stacks, i = [], data.index(b"\n", at) + 1
    while i + 8 <= len(data):
        (n,) = struct.unpack_from("<Q", data, i)
        stacks.append(struct.unpack_from("<%dQ" % n, data, i + 8))
        i += 8 + 8 * n
    return maps, stacks


class Object:
    """One mapped file: where its segments load, and its names."""

    def __init__(self, path):
        self.path = path
        self.is_libc = re.match(r"libc[.-]", os.path.basename(path)) is not None
        self.loads = [(int(f[1], 16), int(f[2], 16), int(f[4], 16))
                      for f in map(str.split, run("readelf", "-lW", path).splitlines())
                      if f and f[0] == "LOAD"]
        self.exports = None
        self.frames = {}

    def vaddr(self, offset):
        for off, vaddr, size in self.loads:
            if off <= offset < off + size:
                return offset - off + vaddr
        return offset

    def nearest_export(self, vaddr):
        if self.exports is None:
            syms = sorted((int(f[0], 16), f[2])
                          for f in map(str.split, run("nm", "-D", "--defined-only", self.path)
                                       .splitlines())
                          if len(f) == 3 and f[1] in "TtWi")
            self.exports = ([a for a, _ in syms], [s for _, s in syms])
        addrs, names = self.exports
        k = bisect.bisect_right(addrs, vaddr) - 1
        return names[k] if k >= 0 else "??"

    def resolve(self, vaddrs):
        """Fill `frames`: each address's functions, innermost first."""
        todo = sorted(a for a in set(vaddrs) if a not in self.frames)
        if not todo:
            return
        groups = collections.defaultdict(list)
        cur = None
        out = run("addr2line", "-a", "-i", "-f", "-C", "-e", self.path, *("%#x" % a for a in todo))
        for line in out.splitlines():
            if re.fullmatch(r"0x[0-9a-f]+", line):
                cur = int(line, 16)
            elif cur is not None:
                groups[cur].append(line)
        prefix = "libc:" if self.is_libc else ""
        for a in todo:
            funcs = [f for f in groups[a][0::2] if f != "??"]
            self.frames[a] = [prefix + f for f in funcs] or [prefix + self.nearest_export(a)]


def symbolize(maps, stacks, objects):
    """Each stack as function names, innermost first."""
    starts = [m[0] for m in maps]
    located = []
    for stack in stacks:
        frames = []
        for addr in stack:
            k = bisect.bisect_right(starts, addr) - 1
            if k < 0 or addr >= maps[k][1]:
                frames.append(None)
                continue
            start, _, offset, path = maps[k]
            obj = objects.get(path)
            if obj is None:
                obj = objects[path] = Object(path)
            # After the interrupted instruction every address is a
            # return address, one past its call.
            back = 1 if frames else 0
            frames.append((obj, obj.vaddr(addr - start + offset) - back))
        located.append(frames)
    wanted = collections.defaultdict(set)
    for frames in located:
        for f in frames:
            if f:
                wanted[f[0]].add(f[1])
    for obj, addrs in wanted.items():
        obj.resolve(addrs)
    return [[name for f in frames for name in (f[0].frames[f[1]] if f else ["??"])]
            for frames in located]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("files", nargs="+")
    ap.add_argument("--through", help="keep the stacks through a function matching this")
    ap.add_argument("--callers", action="append", default=[],
                    help="list the callers of the functions matching this")
    args = ap.parse_args()
    objects, stacks = {}, []
    for path in args.files:
        maps, raw = read_profile(path)
        stacks.extend(s for s in symbolize(maps, raw, objects) if s)
    if args.through:
        pat = re.compile(args.through)
        stacks = [s for s in stacks if any(pat.search(f) for f in s)]
    total = len(stacks)
    print("%d samples" % total)
    if not total:
        return
    selfs, incl = collections.Counter(), collections.Counter()
    for s in stacks:
        top = next((k for k, f in enumerate(s) if not LIBRARY.search(f)), 0)
        selfs[s[0] if top == 0 else "%s > %s" % (s[top], s[0])] += 1
        incl.update(set(s))
    for title, counter in (("self", selfs), ("inclusive", incl)):
        print("\n%s:" % title)
        for name, n in counter.most_common(ROWS):
            print("%6.1f%%  %7d  %s" % (100.0 * n / total, n, name))
    for pattern in args.callers:
        pat, callers = re.compile(pattern), collections.Counter()
        for s in stacks:
            k = next((k for k, f in enumerate(s) if pat.search(f)), None)
            if k is not None:
                caller = next((c for c in s[k + 1:]
                               if not pat.search(c) and not LIBRARY.search(c)), "(root)")
                callers[(s[k], caller)] += 1
        print("\ncallers of /%s/:" % pattern)
        for (f, caller), n in callers.most_common(ROWS):
            print("%6.1f%%  %7d  %s  <-  %s" % (100.0 * n / total, n, f, caller))


if __name__ == "__main__":
    main()
