(** The budget gate of bench/budgets.csv: one line schema and one checker
    for every panel.

    A line is [panel,selector,metric,op,bound].  The selector is a
    [;]-separated list of [key=value] equalities over the panel's key
    columns (empty: every row).  [op] is [max] or [min] and applies to
    every matched {!Row.t}: each row's [metric] must stay at or under
    ([max]) or at or over ([min]) the bound, and the worst row is the
    measured value.  Blank lines and [#] comments are ignored. *)

type op = Max | Min

type line = {
  where : string;  (** ["FILE:N"], for messages *)
  panel : string;
  selector : (string * string) list;
  metric : string;
  op : op;
  bound : float;
}

val parse : file:string -> string -> (line list, string) result
(** Every non-comment line must parse; the error names the first one
    that does not. *)

val load : string -> (line list, string) result

type verdict =
  | Measured of { worst : Row.t; ok : bool }
  | Skipped  (** nothing matched in a panel that ran only in part *)
  | Invalid of string

val check : ?partial:string list -> Row.t list -> line list ->
  (line * verdict) list
(** Gate [rows] against [lines].  A line is [Invalid] when its panel
    produced no row and is not in [partial], when its metric or a
    selector key is not a column of that panel, or when its selector
    matches no row; for a panel in [partial] (one that ran a subset of
    its rows) an unmatched selector is [Skipped] instead. *)

val passed : (line * verdict) list -> bool
(** No line exceeded and none is invalid. *)

val report : (line * verdict) list -> unit
(** One line per budget line: passes and skips to stdout, breaches and
    invalid lines to stderr. *)

val markdown : (line * verdict) list -> string
(** The same verdicts as one markdown table with columns panel,
    selector, metric, measured, bound and margin (the headroom to the
    bound, positive when the line passes). *)
