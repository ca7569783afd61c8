/* The calling thread's CPU time: CLOCK_THREAD_CPUTIME_ID, which leaves out
   the time the thread waited, was descheduled, or (on a guest with
   paravirtual steal-time accounting) lost to the hypervisor. */

#include <time.h>
#include <caml/mlvalues.h>

value perfbench_thread_cpu_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}
