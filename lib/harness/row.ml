(** The one row type of every bench panel; see row.mli. *)

type cell = Str of string | Int of int | Bool of bool | Num of int * float

type t = {
  panel : string;
  keys : (string * cell) list;
  metrics : (string * cell) list;
}

let to_string = function
  | Str s -> s
  | Int i -> string_of_int i
  | Bool b -> string_of_bool b
  | Num (d, v) -> Printf.sprintf "%.*f" d v

let columns r = r.keys @ r.metrics
let cell r name = List.assoc name (columns r)
let str r name = to_string (cell r name)

let int r name =
  match cell r name with
  | Int i -> i
  | _ -> invalid_arg ("Row.int: not an int column: " ^ name)

let num r name =
  match cell r name with
  | Num (_, v) -> v
  | Int i -> float_of_int i
  | _ -> invalid_arg ("Row.num: not a numeric column: " ^ name)

let cells r = List.map (fun (_, c) -> to_string c) (columns r)
let csv_line r = String.concat "," (cells r)

let write_csv path rows =
  let oc = open_out path in
  (match rows with
  | [] -> ()
  | r :: _ ->
      output_string oc (String.concat "," (List.map fst (columns r)) ^ "\n");
      List.iter (fun r -> output_string oc (csv_line r ^ "\n")) rows);
  close_out oc

let print_table = function
  | [] -> ()
  | r :: _ as rows ->
      let header = List.map fst (columns r) in
      let lines = List.map cells rows in
      let widths =
        List.fold_left
          (List.map2 (fun w s -> max w (String.length s)))
          (List.map String.length header)
          lines
      in
      (* strings align left, numbers right *)
      let pad =
        List.map2
          (fun w (_, c) s ->
            match c with
            | Str _ -> Printf.sprintf "%-*s" w s
            | _ -> Printf.sprintf "%*s" w s)
          widths (columns r)
      in
      List.iter
        (fun line ->
          print_endline (String.concat " " (List.map2 (fun f s -> f s) pad line)))
        (header :: lines);
      flush stdout
