(** The benchmark's clocks: bechamel's monotonic clock for wall time, and
    the thread's CPU time, both in ns. *)

let now () = Int64.to_int (Monotonic_clock.now ())

(** The calling thread's CPU time in ns (CLOCK_THREAD_CPUTIME_ID): wall time
    less the time the thread was not running, the hypervisor's steal
    included. *)
external thread_cpu : unit -> int = "perfbench_thread_cpu_ns" [@@noalloc]

(** Smallest non-zero step between two consecutive readings, in ns. *)
let resolution () =
  let best = ref max_int in
  for _ = 1 to 2_000 do
    let t0 = now () in
    let t1 = ref (now ()) in
    while !t1 = t0 do
      t1 := now ()
    done;
    best := min !best (!t1 - t0)
  done;
  !best
