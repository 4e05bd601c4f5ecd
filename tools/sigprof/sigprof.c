/* sigprof: a sampling CPU profiler to LD_PRELOAD into any program.
 *
 *   gcc -O2 -shared -fPIC -o sigprof.so sigprof.c
 *   SIGPROF_OUT=prof LD_PRELOAD=$PWD/sigprof.so ./program
 *   python3 report.py prof.*
 *
 * An ITIMER_PROF timer raises SIGPROF every millisecond of the process's
 * CPU time (the kernel fires at most once per tick). The handler records
 * the running thread's stack with glibc's backtrace() into a static
 * buffer. At exit the library writes /proc/self/maps, a marker line and
 * the stacks to $SIGPROF_OUT.<pid>: each stack is its depth, then its
 * addresses as native 64-bit words: the interrupted instruction, then
 * the return addresses outward (the handler's own frames are dropped).
 * Without SIGPROF_OUT it does nothing.
 */
#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <unistd.h>

#define MAX_DEPTH 128
/* The handler's own frame and the kernel's sigreturn trampoline. */
#define HANDLER_FRAMES 2
#define WORDS (1u << 22) /* 32 MiB; only the pages written count in RSS */

static void *words[WORDS];
static size_t used;    /* words claimed, by every thread */
static size_t dropped; /* samples that found the buffer full */
static int running;    /* the timer was set */

static void on_sigprof(int sig) {
    void *stack[MAX_DEPTH + HANDLER_FRAMES];
    int saved = errno;
    int depth = backtrace(stack, MAX_DEPTH + HANDLER_FRAMES);
    size_t n = depth > HANDLER_FRAMES ? (size_t)(depth - HANDLER_FRAMES) : 0;
    size_t at = __atomic_fetch_add(&used, n + 1, __ATOMIC_RELAXED);
    (void)sig;
    if (at + n + 1 > WORDS) {
        __atomic_fetch_add(&dropped, 1, __ATOMIC_RELAXED);
    } else {
        /* The first word kept is the interrupted instruction. */
        memcpy(&words[at + 1], stack + HANDLER_FRAMES, n * sizeof stack[0]);
        __atomic_store_n(&words[at], (void *)(uintptr_t)n, __ATOMIC_RELEASE);
    }
    errno = saved;
}

__attribute__((constructor)) static void start(void) {
    void *warm[4];
    struct sigaction sa;
    struct itimerval every;
    if (!getenv("SIGPROF_OUT"))
        return;
    /* backtrace() loads libgcc_s on its first call; do that here, not
     * inside a signal handler. */
    backtrace(warm, 4);
    memset(&sa, 0, sizeof sa);
    sa.sa_handler = on_sigprof;
    sa.sa_flags = SA_RESTART;
    sigemptyset(&sa.sa_mask);
    every.it_interval.tv_sec = 0;
    every.it_interval.tv_usec = 1000;
    every.it_value = every.it_interval;
    if (sigaction(SIGPROF, &sa, NULL) != 0 || setitimer(ITIMER_PROF, &every, NULL) != 0) {
        perror("sigprof: no profiling timer, so no profile");
        return;
    }
    running = 1;
}

__attribute__((destructor)) static void finish(void) {
    const char *out = getenv("SIGPROF_OUT");
    struct itimerval off;
    char path[4096], line[4096];
    FILE *maps, *f;
    size_t end, i;
    if (!out || !running)
        return;
    memset(&off, 0, sizeof off);
    setitimer(ITIMER_PROF, &off, NULL);
    snprintf(path, sizeof path, "%s.%d", out, (int)getpid());
    f = fopen(path, "wb");
    maps = fopen("/proc/self/maps", "r");
    if (!f || !maps)
        return;
    while (fgets(line, sizeof line, maps))
        fputs(line, f);
    fclose(maps);
    end = __atomic_load_n(&used, __ATOMIC_ACQUIRE);
    end = end < WORDS ? end : WORDS;
    fprintf(f, "--sigprof-stacks dropped=%zu\n", dropped);
    /* Write whole stacks only; a claim whose stack was never stored
     * reads as depth 0 and is skipped by the report. */
    for (i = 0; i < end;) {
        uint64_t n = (uintptr_t)__atomic_load_n(&words[i], __ATOMIC_ACQUIRE), w[MAX_DEPTH];
        size_t k;
        if (n > MAX_DEPTH || i + 1 + n > end)
            break;
        for (k = 0; k < n; k++)
            w[k] = (uintptr_t)words[i + 1 + k];
        fwrite(&n, sizeof n, 1, f);
        fwrite(w, sizeof w[0], n, f);
        i += 1 + n;
    }
    fclose(f);
}
