(** The layer ledger: each public substrate function timed in isolation on
    the main domain — wall ns and minor words per call, next to the device
    ns the model charges for the same call (the counters it bumps, priced
    by {!Model.device_ns}).  Each entry is the median of [reps] timed
    loops; the loop itself costs one closure call per iteration. *)

open Mirror_nvm
open Mirror_core

type entry = { name : string; ns : float; words : float; model_ns : float }

let reps = 5

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  a.(Array.length a / 2)

let measure name ~iters f =
  let one () =
    let s = Stats.get () in
    Stats.clear s;
    let w0 = Gc.minor_words () in
    let t0 = Clock.now () in
    for _ = 1 to iters do
      f ()
    done;
    let t1 = Clock.now () in
    let w1 = Gc.minor_words () in
    let n = float_of_int iters in
    ( float_of_int (t1 - t0) /. n,
      (w1 -. w0) /. n,
      Model.device_ns (Stats.get ()) iters )
  in
  let runs = Array.init reps (fun _ -> one ()) in
  {
    name;
    ns = median (Array.map (fun (ns, _, _) -> ns) runs);
    words = median (Array.map (fun (_, w, _) -> w) runs);
    model_ns = median (Array.map (fun (_, _, m) -> m) runs);
  }

let run () =
  let region = Region.create ~track_slots:false () in
  let buffered = Region.create ~track_slots:false ~epoch_len:256 () in
  let slot = Slot.make ~persist:true region 0 in
  let bslot = Slot.make ~persist:true ~buffered:true buffered 0 in
  let p = Patomic.make region 0 in
  let ebr = Ebr.create () in
  let a = Atomic.make 0 in
  (* one counter per entry, so each CAS expects the current value *)
  let ia = ref 0 and is = ref 0 and ip = ref 0 in
  List.map
    (fun (name, iters, f) -> measure name ~iters f)
    [
      ( "atomic_cas",
        1_000_000,
        fun () ->
          let v = !ia in
          ia := v + 1;
          ignore (Atomic.compare_and_set a v (v + 1)) );
      ("slot_load", 1_000_000, fun () -> ignore (Slot.load slot));
      ( "slot_store",
        300_000,
        fun () ->
          incr is;
          Slot.store slot !is );
      ( "flush_fence",
        300_000,
        fun () ->
          Slot.flush slot;
          Region.fence region );
      ("persist_deferred", 300_000, fun () -> Slot.persist_deferred bslot);
      ("patomic_load", 1_000_000, fun () -> ignore (Patomic.load p));
      ( "patomic_cas",
        100_000,
        fun () ->
          let v = !ip in
          ip := v + 1;
          ignore (Patomic.cas p ~expected:v ~desired:(v + 1)) );
      ( "stats_get",
        1_000_000,
        fun () -> ignore (Sys.opaque_identity (Stats.get ())) );
      ("hooks_yield", 1_000_000, Hooks.yield);
      ( "ebr_enter_exit",
        1_000_000,
        fun () ->
          Ebr.enter ebr;
          Ebr.exit ebr );
    ]
