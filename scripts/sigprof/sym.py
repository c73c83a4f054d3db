#!/usr/bin/env python3
"""Symbolize a scripts/sigprof/prof.c dump and print self / inclusive / stack tables.

    python3 scripts/sigprof/sym.py sigprof.<pid>.out [--top N] [--grep SUBSTR]

Every sampled address is mapped to (module, address inside the module) through
the dump's copy of /proc/self/maps, then resolved with `addr2line -f -C -i`.
A frame is named by the first function addr2line gives (the symbol that holds
the address when the module has line tables only, as `benchmark/` builds; the
innermost inlined function under full debug info); the functions it was
inlined through count in the inclusive table as well. Shares are of *stored
samples*, i.e. of process CPU time (see prof.c). `--grep` keeps only samples
with a matching function somewhere on the stack, for "who calls malloc".

Inside a stripped library a name is the nearest *exported* symbol below the
address and can be wrong: on Debian's glibc the AVX memcpy/memset variants read
`__nss_database_lookup`, malloc's private helpers read `__default_morecore`,
and `clone3`/`start_thread` read `__xmknodat`/`pthread_condattr_setpshared`.
Kernel time is charged to the user-space instruction that made the syscall.
"""
import argparse
import bisect
import collections
import re
import subprocess

HASH = re.compile(r"::h[0-9a-f]{16}$")


def load(path):
    maps, samples, header = [], [], None
    for line in open(path):
        if header is not None:
            if line.strip():
                # Frames above the interrupted one hold return addresses: step
                # back into the call instruction so inlining resolves there.
                samples.append([int(a, 16) - (i > 0) for i, a in enumerate(line.split())])
        elif line.startswith("--samples"):
            header = line.strip()
        else:
            f = line.split()
            if len(f) >= 6 and f[5].startswith("/"):
                lo, hi = (int(x, 16) for x in f[0].split("-"))
                maps.append((lo, hi, f[5]))
    return sorted(maps), samples, header


def symbolize(maps, samples):
    """address -> the functions addr2line names for it, the frame's own name first"""
    base = {}  # a PIE or shared object's addresses are relative to its lowest mapping
    for lo, _, path in maps:
        base[path] = min(lo, base.get(path, lo))
    starts = [m[0] for m in maps]
    per_module = collections.defaultdict(set)
    for addr in {a for stack in samples for a in stack}:
        i = bisect.bisect_right(starts, addr) - 1
        if i >= 0 and addr < maps[i][1]:
            per_module[maps[i][2]].add((addr, addr - base[maps[i][2]]))
    names = {}
    for module, addrs in per_module.items():
        addrs = sorted(addrs)
        out = subprocess.run(
            ["addr2line", "-f", "-C", "-i", "-a", "-e", module] + [hex(rel) for _, rel in addrs],
            capture_output=True, text=True).stdout.splitlines()
        chains, k = [], 0
        while k < len(out):
            if out[k].startswith("0x"):
                chains.append([])
                k += 1
            else:  # a (function, file:line) pair
                chains[-1].append(HASH.sub("", out[k]))
                k += 2
        short = module.rsplit("/", 1)[-1]
        for (addr, rel), chain in zip(addrs, chains):
            names[addr] = [f if f != "??" else f"[{short}+{rel:#x}]" for f in chain]
    return names


def table(title, counter, total, top):
    print(f"\n{title}")
    for key, n in counter.most_common(top):
        print(f"{100 * n / total:6.1f} %  {n:6d}  {key}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("dump")
    ap.add_argument("--top", type=int, default=40)
    ap.add_argument("--grep")
    args = ap.parse_args()
    maps, samples, header = load(args.dump)
    names = symbolize(maps, samples)
    stacks = [[names.get(a, [f"[{a:#x}]"]) for a in s] for s in samples]
    total = len(stacks)
    if args.grep:
        stacks = [s for s in stacks if any(args.grep in f for frame in s for f in frame)]
    print(f"{header}; {len(stacks)} of {total} samples shown; shares are of all {total}")
    self_, incl, chains = (collections.Counter() for _ in range(3))
    for s in stacks:
        self_[s[0][0]] += 1
        incl.update({f for frame in s for f in frame})
        chains[" <- ".join(frame[0] for frame in s[:6])] += 1
    table("self (the interrupted frame)", self_, total, args.top)
    table("inclusive (function anywhere on the stack, inlined ones too)", incl, total, args.top)
    table("stacks (innermost six frames)", chains, total, args.top // 2)


if __name__ == "__main__":
    main()
