(** Exact latency histogram: one counter per nanosecond below [limit] and
    every larger sample kept verbatim, so quantiles are exact order
    statistics over all samples, without storing or sorting every one.
    The counters live off the OCaml heap so they do not show in
    [heap_peak_mb]. *)

open Bigarray

let limit = 1 lsl 18

type t = {
  bins : (int, int_elt, c_layout) Array1.t;
  mutable over : int array;
  mutable n_over : int;
  mutable count : int;
  mutable sum : int;
}

let create () =
  let bins = Array1.create int c_layout limit in
  Array1.fill bins 0;
  { bins; over = Array.make 64 0; n_over = 0; count = 0; sum = 0 }

let add h ns =
  let ns = max 0 ns in
  if ns < limit then
    Array1.unsafe_set h.bins ns (Array1.unsafe_get h.bins ns + 1)
  else begin
    if h.n_over = Array.length h.over then begin
      let a = Array.make (2 * h.n_over) 0 in
      Array.blit h.over 0 a 0 h.n_over;
      h.over <- a
    end;
    h.over.(h.n_over) <- ns;
    h.n_over <- h.n_over + 1
  end;
  h.count <- h.count + 1;
  h.sum <- h.sum + ns

let count hs = List.fold_left (fun n h -> n + h.count) 0 hs
let sum hs = List.fold_left (fun n h -> n + h.sum) 0 hs

(** Nearest-rank [q]-quantile (0 < q <= 1) over the union of [hs], in ns;
    [None] when there are no samples. *)
let quantile hs q =
  let n = count hs in
  if n = 0 then None
  else begin
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
    let rec scan i acc =
      if i = limit then begin
        let over =
          Array.concat (List.map (fun h -> Array.sub h.over 0 h.n_over) hs)
        in
        Array.sort compare over;
        over.(rank - acc - 1)
      end
      else
        let acc = List.fold_left (fun a h -> a + h.bins.{i}) acc hs in
        if acc >= rank then i else scan (i + 1) acc
    in
    Some (scan 0 0)
  end
