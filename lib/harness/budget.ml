(** The budget gate of bench/budgets.csv; see budget.mli. *)

type op = Max | Min

type line = {
  where : string;
  panel : string;
  selector : (string * string) list;
  metric : string;
  op : op;
  bound : float;
}

let parse_line ~where text =
  let bad why = Error (Printf.sprintf "%s: %s: %s" where why text) in
  let pair s =
    match String.index_opt s '=' with
    | Some i when i > 0 && i < String.length s - 1 ->
        Some
          (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    | _ -> None
  in
  match List.map String.trim (String.split_on_char ',' text) with
  | [ panel; sel; metric; op; bound ] -> (
      let parts = if sel = "" then [] else String.split_on_char ';' sel in
      let selector = List.filter_map pair parts in
      let op =
        match op with "max" -> Some Max | "min" -> Some Min | _ -> None
      in
      match (op, float_of_string_opt bound) with
      | _ when panel = "" || metric = "" -> bad "empty panel or metric"
      | _ when List.length selector <> List.length parts ->
          bad "selector is not key=value[;key=value...]"
      | None, _ -> bad "op is not max or min"
      | Some op, Some bound when not (Float.is_nan bound) ->
          Ok { where; panel; selector; metric; op; bound }
      | Some _, _ -> bad "bound is not a number")
  | _ -> bad "expected panel,selector,metric,op,bound"

let parse ~file contents =
  let rec go n acc = function
    | [] -> Ok (List.rev acc)
    | text :: rest -> (
        let text = String.trim text in
        if text = "" || text.[0] = '#' then go (n + 1) acc rest
        else
          match parse_line ~where:(Printf.sprintf "%s:%d" file n) text with
          | Ok l -> go (n + 1) (l :: acc) rest
          | Error _ as e -> e)
  in
  go 1 [] (String.split_on_char '\n' contents)

let load file =
  parse ~file (In_channel.with_open_bin file In_channel.input_all)

type verdict =
  | Measured of { worst : Row.t; ok : bool }
  | Skipped
  | Invalid of string

let holds l v = match l.op with Max -> v <= l.bound | Min -> v >= l.bound

(* how bad a value is under the line's op; NaN is the worst of all *)
let badness l v =
  if Float.is_nan v then Float.infinity
  else match l.op with Max -> v | Min -> -.v

let check ?(partial = []) rows lines =
  let verdict l =
    let mine = List.filter (fun r -> r.Row.panel = l.panel) rows in
    let skip_or why =
      if List.mem l.panel partial then Skipped else Invalid why
    in
    let is_key r (k, _) = List.mem_assoc k r.Row.keys in
    let matches r = List.for_all (fun (k, v) -> Row.str r k = v) l.selector in
    match mine with
    | [] -> skip_or (Printf.sprintf "unknown panel %S" l.panel)
    | r :: _ when not (List.mem_assoc l.metric r.Row.metrics) ->
        Invalid
          (Printf.sprintf "unknown metric %S of panel %s" l.metric l.panel)
    | r :: _ when not (List.for_all (is_key r) l.selector) ->
        Invalid
          (Printf.sprintf "selector keys of panel %s must be among: %s"
             l.panel
             (String.concat ", " (List.map fst r.Row.keys)))
    | _ -> (
        match List.filter matches mine with
        | [] -> skip_or "selector matches no row"
        | r :: rest ->
            let value r = Row.num r l.metric in
            let worse a b = badness l (value a) > badness l (value b) in
            let worst =
              List.fold_left (fun w r -> if worse r w then r else w) r rest
            in
            Measured { worst; ok = holds l (value worst) })
  in
  List.map (fun l -> (l, verdict l)) lines

let passed =
  List.for_all (fun (_, v) ->
      match v with
      | Measured { ok; _ } -> ok
      | Skipped -> true
      | Invalid _ -> false)

let selector_text l =
  String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) l.selector)

let describe l = Printf.sprintf "%s %s %s" l.panel (selector_text l) l.metric
let op_name = function Max -> "max" | Min -> "min"

let report results =
  List.iter
    (fun (l, v) ->
      match v with
      | Measured { worst; ok } ->
          (* the worst row's keys the selector left open *)
          let at =
            worst.Row.keys
            |> List.filter (fun (k, _) -> not (List.mem_assoc k l.selector))
            |> List.map (fun (k, c) -> k ^ "=" ^ Row.to_string c)
            |> String.concat " "
          in
          let cmp =
            match (l.op, ok) with
            | Max, true -> "<="
            | Max, false -> ">"
            | Min, true -> ">="
            | Min, false -> "<"
          in
          let msg =
            Printf.sprintf "%s %s %s %g%s" (describe l)
              (Row.str worst l.metric) cmp l.bound
              (if at = "" then "" else "  (worst at " ^ at ^ ")")
          in
          if ok then Printf.printf "budget ok       %s\n" msg
          else Printf.eprintf "BUDGET EXCEEDED %s\n" msg
      | Skipped ->
          Printf.printf
            "budget skipped  %s (panel ran in part, no row matched)\n"
            (describe l)
      | Invalid why -> Printf.eprintf "BUDGET INVALID  %s: %s\n" l.where why)
    results;
  flush stdout;
  flush stderr

let markdown results =
  let row (l, v) =
    let measured, margin =
      match v with
      | Measured { worst; _ } ->
          let m = Row.num worst l.metric in
          ( Row.str worst l.metric,
            Printf.sprintf "%+.4g"
              (match l.op with Max -> l.bound -. m | Min -> m -. l.bound) )
      | Skipped -> ("skipped", "")
      | Invalid why -> ("invalid: " ^ why, "")
    in
    Printf.sprintf "| %s | %s | %s | %s | %s %g | %s |\n" l.panel
      (selector_text l) l.metric measured (op_name l.op) l.bound margin
  in
  "### Bench budgets\n\n\
   | panel | selector | metric | measured | bound | margin |\n\
   |---|---|---|---|---|---|\n"
  ^ String.concat "" (List.map row results)
  ^ "\n"
