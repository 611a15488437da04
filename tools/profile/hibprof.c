/* hibprof: a SIGPROF PC sampler to LD_PRELOAD into any program.
 *
 *   HIBPROF_OUT=prof.txt LD_PRELOAD=<build>/tools/profile/libhibprof.so ./prog
 *   python3 tools/profile/hibprof.py prof.txt
 *
 * Every 1 ms of process CPU time (ITIMER_PROF; the kernel may round the
 * period up to its tick) the interrupted thread records its PC and up to
 * kFrames - 1 return addresses.  At exit the samples are written to
 * $HIBPROF_OUT with the process's CPU time and /proc/self/maps, so the
 * symboliser can map every address back to its ELF file.  Without HIBPROF_OUT the
 * library does nothing.  It needs no rebuild of the profiled program, and
 * unlike gprof it adds no instrumentation to small hot functions.
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <ucontext.h>

enum { kFrames = 8, kMaxSamples = 1 << 18, kPeriodUs = 1000 };

/* Zero pages until touched: resident size grows only with the samples taken. */
static uintptr_t g_samples[kMaxSamples][kFrames];
static int g_taken;
static const char* g_out;

static uintptr_t InterruptedPc(const void* context) {
  const ucontext_t* uc = context;
#if defined(__x86_64__)
  return (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  return (uintptr_t)uc->uc_mcontext.pc;
#else
  (void)uc;
  return 0;
#endif
}

static void OnProf(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  int slot = __atomic_fetch_add(&g_taken, 1, __ATOMIC_RELAXED);
  if (slot >= kMaxSamples) {
    return;
  }
  uintptr_t* out = g_samples[slot];
  out[0] = InterruptedPc(context);
  /* The unwinder walks through the signal frame: skip the handler's own
   * frames up to the interrupted PC and keep its callers. */
  void* stack[kFrames + 8];
  int depth = backtrace(stack, kFrames + 8);
  int next = depth;
  for (int i = 0; i < depth; ++i) {
    if ((uintptr_t)stack[i] == out[0]) {
      next = i + 1;
      break;
    }
  }
  for (int n = 1; next < depth && n < kFrames; ++next, ++n) {
    out[n] = (uintptr_t)stack[next];
  }
}

__attribute__((constructor)) static void StartSampling(void) {
  g_out = getenv("HIBPROF_OUT");
  if (g_out == NULL || g_out[0] == '\0') {
    g_out = NULL;
    return;
  }
  /* The first backtrace() loads the unwinder (dlopen, malloc): do it here,
   * not inside the signal handler. */
  void* warm[2];
  backtrace(warm, 2);
  struct sigaction action;
  memset(&action, 0, sizeof(action));
  action.sa_sigaction = OnProf;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, NULL);
  struct itimerval period = {{0, kPeriodUs}, {0, kPeriodUs}};
  setitimer(ITIMER_PROF, &period, NULL);
}

__attribute__((destructor)) static void WriteSamples(void) {
  if (g_out == NULL) {
    return;
  }
  struct itimerval off;
  memset(&off, 0, sizeof(off));
  setitimer(ITIMER_PROF, &off, NULL);
  signal(SIGPROF, SIG_IGN);
  FILE* out = fopen(g_out, "w");
  if (out == NULL) {
    perror("hibprof: HIBPROF_OUT");
    return;
  }
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  fprintf(out, "# hibprof 1\ncpu_s %ld.%06ld\n",
          (long)(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
              (long)(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1000000,
          (long)(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) % 1000000);
  FILE* maps = fopen("/proc/self/maps", "r");
  if (maps != NULL) {
    char line[4096];
    while (fgets(line, sizeof(line), maps) != NULL) {
      fprintf(out, "map %s", line);
    }
    fclose(maps);
  }
  int taken = __atomic_load_n(&g_taken, __ATOMIC_RELAXED);
  if (taken > kMaxSamples) {
    fprintf(out, "dropped %d\n", taken - kMaxSamples);
    taken = kMaxSamples;
  }
  for (int i = 0; i < taken; ++i) {
    fputc('s', out);
    for (int f = 0; f < kFrames && g_samples[i][f] != 0; ++f) {
      fprintf(out, " %lx", (unsigned long)g_samples[i][f]);
    }
    fputc('\n', out);
  }
  fclose(out);
}
