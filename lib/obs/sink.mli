(** Structured JSONL event sink and the repo's shared JSON encoder.

    All JSON the repo produces is built from {!json} values and rendered by
    {!to_buffer}/{!to_string}, which emit spec-valid JSON: control characters
    are escaped as [\u00XX] (OCaml's ["%S"] decimal [\ddd] escapes are not
    JSON), non-finite floats render as [null], and UTF-8 payload bytes pass
    through untouched.

    A sink writes one event per line.  Installing a sink makes it the
    process-global destination for {!emit}; with no sink installed, [emit]
    costs a single bool check, so instrumented library code pays ~nothing
    when observability is off.

    Sinks are domain-safe: each domain buffers complete event lines in
    domain-local storage and hands them to the shared channel under the
    sink's mutex only when a buffer fills (or at {!flush}/{!flush_local}),
    so concurrent writers from an [Exec.Pool] can never interleave bytes
    mid-line and the output remains valid JSONL.  The hot path takes no
    lock.  Install and close must happen while no worker domain is
    writing (the pool's task handoff provides the needed ordering). *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

(** {1 Encoding} *)

val escape_to_buffer : Buffer.t -> string -> unit
(** Append the JSON-escaped body of a string (no surrounding quotes). *)

val json_string : string -> string
(** A complete JSON string literal, quotes included. *)

val to_buffer : Buffer.t -> json -> unit
val to_string : json -> string

(** {1 Parsing}

    A minimal strict JSON reader: used by [shortcuts-cli report] and the
    [jsonl_check] tool to consume sink output.  Numbers without [./e/E]
    parse as [Int]; [\uXXXX] escapes (including surrogate pairs) decode to
    UTF-8. *)

val parse : string -> (json, string) result

val member : string -> json -> json option
(** Field lookup on an [Obj]; [None] on other constructors. *)

val string_value : json -> string option
val int_value : json -> int option
val float_value : json -> float option

(** {1 Sink lifecycle} *)

type t

val of_channel : out_channel -> t
val open_file : string -> t

val write : t -> json -> unit
(** Append one event line (buffered per domain; a domain's buffer is pushed
    to the channel at 64 KiB boundaries). *)

val flush : t -> unit
(** Push the calling domain's buffered lines and flush the channel. *)

val flush_local : unit -> unit
(** Hand the calling domain's buffered lines to their sink without flushing
    the channel.  Called by [Exec.Pool] on each worker before it parks, and
    usable from any domain that is about to stop writing. *)

val close : t -> unit
(** Flush, close the underlying channel, and detach the sink if it is
    the installed one.  Idempotent. *)

val event_count : t -> int
(** Events written so far, counting the calling domain's buffered lines;
    lines still buffered by *other* domains are counted once they flush. *)

(** {1 Global installation} *)

val install : t -> unit

val enabled : unit -> bool

val emit : type_:string -> (string * json) list -> unit
(** Emit [{"type": t, "ts": seconds, ...fields}] to the installed sink;
    no-op when none is installed. *)

val with_file : string -> (unit -> 'a) -> 'a
(** [with_file path f]: open a sink on [path], install it, run [f], and
    close (flushing) even on exceptions. *)
