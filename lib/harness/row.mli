(** The one row type of every bench panel: the panel family it belongs
    to, the key columns that identify it and the metric columns it
    measured.  Each cell carries its own print format, so one writer
    derives every panel's CSV and one printer every stdout table, and
    {!Budget} gates any metric column by name. *)

type cell =
  | Str of string
  | Int of int
  | Bool of bool
  | Num of int * float  (** [Num (d, v)]: [v] printed with [d] decimals *)

type t = {
  panel : string;  (** figure, elision, buffered, line, recovery, ... *)
  keys : (string * cell) list;
  metrics : (string * cell) list;
}

val to_string : cell -> string

val columns : t -> (string * cell) list
(** Keys then metrics: the CSV and table column order. *)

val str : t -> string -> string
(** The rendered cell of a column; raises [Not_found] on an unknown one. *)

val int : t -> string -> int
val num : t -> string -> float
(** [num] reads [Num] and [Int] cells as floats, unrounded. *)

val csv_line : t -> string

val write_csv : string -> t list -> unit
(** A header derived from the first row's column names, then one line
    per row.  An empty list writes an empty file. *)

val print_table : t list -> unit
(** Column names, then one right-aligned line per row, to stdout. *)
