(** The bench ledger ([BENCH_LEDGER.jsonl], schema [bench-ledger/v2]).

    One JSON entry per line.  [bench/main.exe --ledger] appends entries,
    [tools/jsonl_check --ledger] validates them and [tools/bench_diff]
    gates the latest one against a blessed baseline.  All three read one
    table in [ledger.ml].  It lists the entry's sections, the fields each
    row must carry, and, for each gated metric, how far it may move
    (DESIGN.md section 13).  A new number lands in the ledger as one
    line of that table and is then validated and gated. *)

val schema : string
(** ["bench-ledger/v2"], the tag every entry carries. *)

(** {1 The file} *)

type line = { lineno : int; text : string; json : (Sink.json, string) result }

val read : string -> (line list, string) result
(** The non-blank lines of a JSONL file (a ledger or an event stream), each
    parsed and numbered from 1.  [Error] carries the I/O failure. *)

val append : string -> Sink.json -> (unit, string list) result
(** Validate an entry, then append it as one line.  Nothing is written
    when the entry breaks a rule; [Error] lists the rules. *)

val rewrite : string -> string list -> unit
(** Replace the file with these lines. *)

(** {1 Validation} *)

val validate : Sink.json -> string list
(** Every rule the entry breaks, one message each, naming the field the
    way the gate names it ([E1.cpu_ms], [serve.p99_ms], ...).  A section
    is required when the experiment that produces it ran. *)

val check_file : line list -> (int * string) list
(** Parse errors and {!validate} on every line, plus the one rule across
    lines: dates never go backwards.  Each problem with its line number. *)

val check_event : type_:string -> Sink.json -> string list
(** The row rules for a JSONL event whose payload is a ledger row
    ([serve_summary], [asynch_summary]); [[]] for other event types. *)

(** {1 The gate} *)

val mode : Sink.json -> string
(** The run mode ([--only], cache) an entry was recorded under; entries of
    different modes are not comparable. *)

type verdict = {
  checked : int;  (** metrics compared *)
  regressions : string list;  (** one ["REGRESSION name: ..."] line each *)
  missing : string list;  (** baseline rows the current entry lacks *)
  speed : float;  (** current calibration / baseline calibration *)
}

val gate : baseline:Sink.json -> current:Sink.json -> verdict
(** Compare every gated metric of two valid entries of the same mode.
    Time metrics are divided by [speed] first, except in the rows the
    table marks raw (SV1's wall time, set by its arrival schedule). *)
