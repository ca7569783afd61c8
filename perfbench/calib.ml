(** The host-speed calibrator.  A fixed probe, independent of the libraries
    under test, is timed in thread CPU time right before every op loop and
    every set-up.  The host's speed for the same code drifts from run to
    run, and within a run: other guests compete for the shared cache and
    memory, and for the core.  That moves the probe and the ops alike;
    dividing it out leaves what the program itself costs.  Times are then
    reported at the reference speed: the speed at which one probe takes
    [ref_ns].

    The probe is a dependent chain of loads and stores at random lines of
    a 1 MiB array, mixed with integer arithmetic.  Before it, an untimed
    sweep over a 4 MiB buffer (twice the L2) evicts the array from L2,
    whatever the program left there, so every probe starts from the same
    cache state and its loads are served by the shared L3 and memory.
    Those are what the other guests disturb most: over 2 s windows of one
    run, a workload's op rate moved 1 to 2 times as much as this probe (in
    log terms), and 2 to 6 times as much as a probe that stays in L1.
    The probe allocates nothing, so the program's heap cannot slow it. *)

open Bigarray

let line_words = 8
let sweep_words = 1 lsl 19
let probe_words = 1 lsl 17
let steps = 20_000

(* One probe's thread CPU time in ns on the reference host: the median
   probe, between op loops, on a 2-vCPU Xeon (Sapphire Rapids) VM. *)
let ref_ns = 1_900_000.

(* Probes whose median gives the current speed, so that one probe slowed by
   an interrupt does not skew an op loop. *)
let window = 5

type buf = (int, int_elt, c_layout) Array1.t

type t = {
  sweep : buf;
  probe : buf;
  recent : float array;  (** the last [window] probes, in ns *)
  mutable n : int;  (** probes run so far *)
}

let buf words =
  let a = Array1.create int c_layout words in
  for i = 0 to words - 1 do
    a.{i} <- i * 0x9E3779B9
  done;
  a

let create () =
  {
    sweep = buf sweep_words;
    probe = buf probe_words;
    recent = Array.make window 0.;
    n = 0;
  }

let probe t =
  let s = t.sweep and a = t.probe in
  for k = 0 to (sweep_words / line_words) - 1 do
    let j = k * line_words in
    Array1.unsafe_set s j (Array1.unsafe_get s j + 1)
  done;
  let x = ref 0x2545F4914F6CDD1D and i = ref 0 in
  let t0 = Clock.thread_cpu () in
  for _ = 1 to steps do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let v = Array1.unsafe_get a !i in
    Array1.unsafe_set a !i (v + 1);
    i := (v lxor !x) land (probe_words - 1)
  done;
  float_of_int (Clock.thread_cpu () - t0)

(** Run one probe; return the factor that takes a time measured now to the
    reference speed: [ref_ns] over the median of the last [window] probes
    (below 1 on a host slower than the reference). *)
let scale t =
  t.recent.(t.n mod window) <- probe t;
  t.n <- t.n + 1;
  let r = Array.sub t.recent 0 (min t.n window) in
  Array.sort compare r;
  ref_ns /. r.(Array.length r / 2)
