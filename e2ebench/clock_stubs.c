/* Monotonic clock with nanosecond resolution: parse and plan calls take
   about a microsecond, below Unix.gettimeofday's resolution. */
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

double e2e_now(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value e2e_now_byte(value unit)
{
  return caml_copy_double(e2e_now(unit));
}
