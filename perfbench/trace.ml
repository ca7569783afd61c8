(** Spans the traced run records around each call the benchmark makes into
    a layer.  One recorder per domain (no sharing, no locks); spans stay in
    memory and {!write} dumps them as JSON lines when the run ends.

    Every span feeds its name's aggregate (count, total and self time;
    self = duration minus the children's durations).  Op spans are the
    exception to "keep everything": only the first [op_cap] per recorder
    are kept for the file, though all of them are aggregated. *)

let op_cap = 1 lsl 13

type span = {
  id : int;
  name : string;
  up : span option;
  worker : int;
  op : int;  (** op index within the worker's stream, [-1] when not an op *)
  t0 : int;
  mutable t1 : int;
  mutable child_ns : int;
}

type agg = {
  aname : string;
  mutable n : int;
  mutable total_ns : int;
  mutable self_ns : int;
}

type t = {
  worker : int;  (** [0] = main domain, [i + 1] = worker [i] *)
  mutable next : int;
  mutable kept : span list;
  mutable ops_kept : int;
  aggs : (string, agg) Hashtbl.t;
}

let create worker =
  { worker; next = 0; kept = []; ops_kept = 0; aggs = Hashtbl.create 16 }

let agg t name =
  match Hashtbl.find_opt t.aggs name with
  | Some a -> a
  | None ->
      let a = { aname = name; n = 0; total_ns = 0; self_ns = 0 } in
      Hashtbl.add t.aggs name a;
      a

let fresh_id t =
  t.next <- t.next + 1;
  (t.next lsl 4) lor t.worker

(** Open a span now, or at [t0] when it started earlier. *)
let enter t ?up ?t0 name =
  {
    id = fresh_id t;
    name;
    up;
    worker = t.worker;
    op = -1;
    t0 = (match t0 with Some t0 -> t0 | None -> Clock.now ());
    t1 = -1;
    child_ns = 0;
  }

let account a ~up ~dur ~self =
  a.n <- a.n + 1;
  a.total_ns <- a.total_ns + dur;
  a.self_ns <- a.self_ns + self;
  match up with Some p -> p.child_ns <- p.child_ns + dur | None -> ()

(** Close a span now, or at [t1] when it ended earlier. *)
let leave t ?t1 s =
  s.t1 <- (match t1 with Some t1 -> t1 | None -> Clock.now ());
  let dur = s.t1 - s.t0 in
  account (agg t s.name) ~up:s.up ~dur ~self:(dur - s.child_ns);
  t.kept <- s :: t.kept

(** One op span ([a] = the aggregate of its op kind, from {!agg}). *)
let op t a ~up ~index ~t0 ~t1 =
  let dur = t1 - t0 in
  account a ~up:(Some up) ~dur ~self:dur;
  if t.ops_kept < op_cap then begin
    t.ops_kept <- t.ops_kept + 1;
    t.kept <-
      {
        id = fresh_id t;
        name = a.aname;
        up = Some up;
        worker = t.worker;
        op = index;
        t0;
        t1;
        child_ns = 0;
      }
      :: t.kept
  end

(** Per-name aggregates summed over recorders, sorted by name:
    [(name, count, total_ns, self_ns)]. *)
let summary ts =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun t ->
      Hashtbl.iter
        (fun name a ->
          if a.n > 0 then begin
            let n, tot, self =
              Option.value (Hashtbl.find_opt tbl name) ~default:(0, 0, 0)
            in
            Hashtbl.replace tbl name
              (n + a.n, tot + a.total_ns, self + a.self_ns)
          end)
        t.aggs)
    ts;
  Hashtbl.fold (fun name (n, tot, self) acc -> (name, n, tot, self) :: acc) tbl []
  |> List.sort compare

(** Write every kept span of [ts] to [path] as JSON lines, by start time. *)
let write path ts =
  let spans =
    List.concat_map (fun t -> t.kept) ts
    |> List.sort (fun a b -> compare (a.t0, a.id) (b.t0, b.id))
  in
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":\"%s\",\"parent\":%d,\"worker\":%d,\"op\":%d,\"start_ns\":%d,\"end_ns\":%d}\n"
        s.id s.name
        (match s.up with Some p -> p.id | None -> -1)
        s.worker s.op s.t0 s.t1)
    spans;
  close_out oc;
  List.length spans
