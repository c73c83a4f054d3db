/* SIGPROF sampling profiler for hosts without `perf`: an LD_PRELOAD library.
 *
 *   gcc -O2 -shared -fPIC -o target/sigprof.so scripts/sigprof/prof.c
 *   LD_PRELOAD=$PWD/target/sigprof.so <program> [args]   # writes ./sigprof.<pid>.out
 *   python3 scripts/sigprof/sym.py sigprof.<pid>.out
 *
 * The constructor arms ITIMER_PROF, which ticks every 2 ms of *process CPU
 * time* (user + system, all threads) and delivers SIGPROF to a thread that is
 * running, so sample shares are shares of process CPU; a parked thread is
 * never sampled. The handler stores up to 24 return addresses into a static
 * array (no allocation, no locks); an atexit hook writes /proc/self/maps and
 * the raw addresses, and sym.py turns them into function names offline.
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <unistd.h>

#define INTERVAL_US 2000
#define MAX_SAMPLES (1 << 17) /* 262 CPU-seconds at 2 ms; later ticks are counted, not stored */
#define MAX_FRAMES 24
#define SKIP 2 /* the handler itself and the kernel's signal trampoline */

static void *samples[MAX_SAMPLES][MAX_FRAMES]; /* BSS: untouched pages cost nothing */
static unsigned char depth[MAX_SAMPLES];
static volatile unsigned long ticks;

static void on_sigprof(int sig) {
    (void)sig;
    unsigned long slot = __atomic_fetch_add(&ticks, 1, __ATOMIC_RELAXED);
    if (slot >= MAX_SAMPLES)
        return;
    void *frames[MAX_FRAMES + SKIP];
    int n = backtrace(frames, MAX_FRAMES + SKIP) - SKIP;
    if (n <= 0)
        return;
    memcpy(samples[slot], frames + SKIP, (size_t)n * sizeof(void *));
    depth[slot] = (unsigned char)n;
}

static void set_timer(long usec) {
    struct itimerval it = {{0, usec}, {0, usec}};
    setitimer(ITIMER_PROF, &it, NULL);
}

static void dump(void) {
    set_timer(0);
    char path[64], line[512];
    snprintf(path, sizeof path, "sigprof.%d.out", (int)getpid());
    FILE *out = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    while (fgets(line, sizeof line, maps))
        fputs(line, out);
    fclose(maps);
    unsigned long taken = ticks, stored = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    fprintf(out, "--samples %lu stored %lu interval_us %d\n", taken, stored, INTERVAL_US);
    for (unsigned long s = 0; s < stored; s++) {
        for (int f = 0; f < depth[s]; f++)
            fprintf(out, "%s%p", f ? " " : "", samples[s][f]);
        fputc('\n', out);
    }
    fclose(out);
}

__attribute__((constructor)) static void start(void) {
    /* The first backtrace() loads libgcc's unwinder, which allocates: do it
     * here so the handler never does. */
    void *warm[4];
    backtrace(warm, 4);
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_handler = on_sigprof;
    sa.sa_flags = SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    atexit(dump);
    set_timer(INTERVAL_US);
}
