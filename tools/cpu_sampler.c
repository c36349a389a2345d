// cpu_sampler — a signal-based CPU sampler for hosts where perf_event_open
// has no PMU (most VMs). Load it into any dynamically linked program:
//
//   cc -O2 -shared -fPIC -o cpu_sampler.so tools/cpu_sampler.c
//   CPU_SAMPLER_OUT=/tmp/run LD_PRELOAD=$PWD/cpu_sampler.so ./program ...
//   python3 tools/cpu_profile.py /tmp/run.<pid>
//
// Every process that loads the sampler writes its own file,
// $CPU_SAMPLER_OUT.<pid> (default prefix: cpu_samples), if it took any
// samples; LD_PRELOAD is inherited, so wrappers such as timeout(1) load it
// too, but a forked child that does not exec never writes its parent's.
//
// ITIMER_PROF delivers SIGPROF to the process after every kIntervalUs
// (1000) microseconds of CPU it consumes, user plus system time,
// and Linux hands the signal to the thread that was running. The kernel
// checks the timer at its scheduler tick, so a busy multi-threaded process
// gets at most about CONFIG_HZ samples per second whatever the interval;
// each still lands on a thread in proportion to its CPU time. The handler
// records (thread id, interrupted user PC) into a fixed buffer mapped at
// load time. Time spent in a system call therefore lands on the libc
// wrapper that made it (read, send, epoll_pwait2, ...). At normal exit
// (return from main or exit(); not _exit or a fatal signal) the sampler
// stops the timer and writes the samples plus a copy of /proc/self/maps,
// which cpu_profile.py needs to symbolize the PCs.
//
// Caveats:
//   * SIGPROF interrupts system calls. The handler is installed with
//     SA_RESTART, so blocking read/write/send restart transparently, but
//     calls that are never restarted (epoll_wait, epoll_pwait2, poll,
//     select, nanosleep, clock_nanosleep with a relative time, ...) fail
//     with EINTR. A program that treats EINTR from them as an error will
//     misbehave under the sampler.
//   * A program that installs its own SIGPROF handler or ITIMER_PROF
//     timer overrides the sampler's.
//   * The timer survives execve but the handler does not, so a process
//     that execs (a shell script such as a pyenv shim) can die of SIGPROF
//     before the new image loads the sampler again. Preload it into the
//     final binary itself.
//   * Samples beyond kCapacity (2^19, 16 bytes each; over half an hour of
//     samples at the tick cap) are counted as dropped, not recorded.
//
// Output format (text): a "# cpu_sampler" header line with the interval
// and counts, the maps lines each prefixed "map ", then one "s <tid>
// <pc-hex>" line per sample.

#define _GNU_SOURCE
#include <errno.h>
#include <pthread.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

typedef struct {
  uint64_t tid;
  uint64_t pc;
} Sample;

// The interval is a constant: the scheduler tick, not the interval, sets
// the real rate, and any interval below one tick samples at that rate.
enum { kIntervalUs = 1000 };
static const size_t kCapacity = (size_t)1 << 19;

static Sample* g_samples = NULL;
static atomic_size_t g_next = 0;
static atomic_int g_stopped = 0;

static uint64_t InterruptedPc(const ucontext_t* uc) {
#if defined(__x86_64__)
  return (uint64_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  return (uint64_t)uc->uc_mcontext.pc;
#else
#error "cpu_sampler: add the PC register of this architecture"
#endif
}

static void OnSigprof(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  if (atomic_load_explicit(&g_stopped, memory_order_relaxed)) return;
  const int saved_errno = errno;
  const size_t i = atomic_fetch_add_explicit(&g_next, 1, memory_order_relaxed);
  if (i < kCapacity) {
    g_samples[i].tid = (uint64_t)syscall(SYS_gettid);
    g_samples[i].pc = InterruptedPc((const ucontext_t*)context);
  }
  errno = saved_errno;
}

// The child of a fork has no timer and must not dump the parent's samples.
static void ForgetInChild(void) { g_samples = NULL; }

__attribute__((constructor)) static void StartSampler(void) {
  void* buffer = mmap(NULL, kCapacity * sizeof(Sample),
                      PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                      -1, 0);
  if (buffer == MAP_FAILED) {
    fprintf(stderr, "cpu_sampler: cannot map %zu samples; not sampling\n",
            kCapacity);
    return;
  }
  g_samples = (Sample*)buffer;
  pthread_atfork(NULL, NULL, ForgetInChild);

  struct sigaction action;
  memset(&action, 0, sizeof(action));
  action.sa_sigaction = OnSigprof;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, NULL);

  struct itimerval timer;
  timer.it_interval.tv_sec = 0;
  timer.it_interval.tv_usec = kIntervalUs;
  timer.it_value = timer.it_interval;
  setitimer(ITIMER_PROF, &timer, NULL);
}

__attribute__((destructor)) static void DumpSamples(void) {
  if (g_samples == NULL) return;
  struct itimerval off;
  memset(&off, 0, sizeof(off));
  setitimer(ITIMER_PROF, &off, NULL);
  atomic_store(&g_stopped, 1);

  const size_t taken = atomic_load(&g_next);
  if (taken == 0) return;
  const size_t kept = taken < kCapacity ? taken : kCapacity;
  const char* prefix = getenv("CPU_SAMPLER_OUT");
  if (prefix == NULL || *prefix == '\0') prefix = "cpu_samples";
  char path[4096];
  snprintf(path, sizeof(path), "%s.%d", prefix, (int)getpid());
  FILE* out = fopen(path, "w");
  if (out == NULL) {
    fprintf(stderr, "cpu_sampler: cannot write %s: %s\n", path,
            strerror(errno));
    return;
  }
  fprintf(out, "# cpu_sampler interval_us=%d samples=%zu dropped=%zu\n",
          kIntervalUs, kept, taken - kept);

  FILE* maps = fopen("/proc/self/maps", "r");
  if (maps != NULL) {
    char line[4096];
    while (fgets(line, sizeof(line), maps) != NULL) {
      fprintf(out, "map %s", line);
    }
    fclose(maps);
  }
  for (size_t i = 0; i < kept; ++i) {
    fprintf(out, "s %llu %llx\n", (unsigned long long)g_samples[i].tid,
            (unsigned long long)g_samples[i].pc);
  }
  fclose(out);
  fprintf(stderr, "cpu_sampler: %zu samples (%zu dropped) -> %s\n", kept,
          taken - kept, path);
}
