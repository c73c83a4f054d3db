/* Live-heap histogram at the process's peak: an LD_PRELOAD malloc interposer.
 *
 *   gcc -O2 -shared -fPIC -o target/heaphist.so scripts/heaphist/heaphist.c -ldl
 *   LD_PRELOAD=$PWD/target/heaphist.so <program> [args]   # writes ./heaphist.<pid>.out
 *
 * Every malloc/calloc/realloc/memalign-family call and every free is charged,
 * by `malloc_usable_size`, to a power-of-two size class (class "<= 64" holds
 * blocks of 33..64 usable bytes). Whenever the total of live bytes passes the
 * last recorded peak by SNAP_STEP the per-class table is copied, so at exit the
 * file holds what was live at (within SNAP_STEP of) the peak: which sizes, how
 * many blocks, how many bytes. Counters are relaxed atomics and the copy is
 * taken while other threads allocate, so a row can be off by the few blocks in
 * flight; totals of tens of thousands of blocks are what it is for.
 *
 * `dlsym` itself allocates, so until the real functions are resolved requests
 * are served from a small static arena whose blocks are never freed or counted.
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <fcntl.h>
#include <malloc.h>
#include <stdio.h>
#include <unistd.h>

#define CLASSES 48
#define SNAP_STEP (256 * 1024)

static void *(*real_malloc)(size_t), *(*real_calloc)(size_t, size_t), *(*real_realloc)(void *, size_t),
    *(*real_memalign)(size_t, size_t);
static void (*real_free)(void *);

static char arena[1 << 16] __attribute__((aligned(16)));
static size_t arena_used;
static int resolving;

static long live_bytes[CLASSES], live_blocks[CLASSES], total_live;
static long snap_bytes[CLASSES], snap_blocks[CLASSES], snap_total;
static int snap_lock;

static int in_arena(void *p) { return (char *)p >= arena && (char *)p < arena + sizeof arena; }

static void *arena_alloc(size_t n) {
    size_t at = __atomic_fetch_add(&arena_used, (n + 15) & ~(size_t)15, __ATOMIC_RELAXED);
    return at + n <= sizeof arena ? arena + at : NULL;
}

static void resolve(void) {
    resolving = 1;
    real_malloc = dlsym(RTLD_NEXT, "malloc");
    real_calloc = dlsym(RTLD_NEXT, "calloc");
    real_realloc = dlsym(RTLD_NEXT, "realloc");
    real_memalign = dlsym(RTLD_NEXT, "memalign");
    real_free = dlsym(RTLD_NEXT, "free");
    resolving = 0;
}

/* Charge (sign = +1) or release (sign = -1) the block at `p`. */
static void account(void *p, long sign) {
    if (!p || in_arena(p))
        return;
    size_t size = malloc_usable_size(p);
    int cls = size <= 32 ? 5 : 64 - __builtin_clzl(size - 1);
    __atomic_fetch_add(&live_bytes[cls], sign * (long)size, __ATOMIC_RELAXED);
    __atomic_fetch_add(&live_blocks[cls], sign, __ATOMIC_RELAXED);
    long total = __atomic_add_fetch(&total_live, sign * (long)size, __ATOMIC_RELAXED);
    if (total > __atomic_load_n(&snap_total, __ATOMIC_RELAXED) + SNAP_STEP &&
        !__atomic_exchange_n(&snap_lock, 1, __ATOMIC_ACQUIRE)) {
        for (int c = 0; c < CLASSES; c++) {
            snap_bytes[c] = __atomic_load_n(&live_bytes[c], __ATOMIC_RELAXED);
            snap_blocks[c] = __atomic_load_n(&live_blocks[c], __ATOMIC_RELAXED);
        }
        __atomic_store_n(&snap_total, total, __ATOMIC_RELAXED);
        __atomic_store_n(&snap_lock, 0, __ATOMIC_RELEASE);
    }
}

void *malloc(size_t n) {
    if (!real_malloc) {
        if (resolving)
            return arena_alloc(n);
        resolve();
    }
    void *p = real_malloc(n);
    account(p, 1);
    return p;
}

void *calloc(size_t count, size_t n) {
    if (!real_calloc) {
        if (resolving)
            return arena_alloc(count * n); /* the arena is BSS: already zero */
        resolve();
    }
    void *p = real_calloc(count, n);
    account(p, 1);
    return p;
}

void *realloc(void *old, size_t n) {
    if (!real_realloc)
        resolve();
    account(old, -1);
    void *p = real_realloc(old, n);
    account(p ? p : old, 1); /* a failed realloc leaves the old block live */
    return p;
}

void *memalign(size_t align, size_t n) {
    if (!real_memalign)
        resolve();
    void *p = real_memalign(align, n);
    account(p, 1);
    return p;
}

void *aligned_alloc(size_t align, size_t n) { return memalign(align, n); }

int posix_memalign(void **out, size_t align, size_t n) {
    void *p = memalign(align, n);
    if (!p)
        return 12; /* ENOMEM */
    *out = p;
    return 0;
}

void free(void *p) {
    if (!p || in_arena(p))
        return;
    if (!real_free)
        resolve();
    account(p, -1);
    real_free(p);
}

__attribute__((destructor)) static void dump(void) {
    char path[64];
    snprintf(path, sizeof path, "heaphist.%d.out", (int)getpid());
    int fd = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return;
    dprintf(fd, "live heap at its peak: %.1f MB (usable bytes; rows within %d KiB of the peak)\n",
            snap_total / 1e6, SNAP_STEP / 1024);
    dprintf(fd, "%14s %10s %12s %7s\n", "block size <=", "blocks", "MB", "share");
    for (int c = 0; c < CLASSES; c++)
        if (snap_blocks[c] > 0)
            dprintf(fd, "%14lu %10ld %12.2f %6.1f%%\n", 1ul << c, snap_blocks[c], snap_bytes[c] / 1e6,
                    100.0 * snap_bytes[c] / (snap_total ? snap_total : 1));
    close(fd);
}
