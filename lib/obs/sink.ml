(* Structured JSONL event sink + the repo's one shared JSON encoder.

   Every JSON string the repo writes (bench --json / --jsonl, trace export,
   span and metrics events) goes through [to_buffer] below.  The encoder is
   byte-correct where the old Printf "%S" hack was not: OCaml's "%S" escapes
   non-printable bytes as decimal "\ddd", which is not JSON.  Here control
   characters become "\u00XX", the two mandatory escapes are handled, and
   everything else (including multi-byte UTF-8) passes through verbatim.

   The sink itself is a line-per-event writer with an in-process buffer and
   a process-global installation point, so library code can emit events
   without threading a handle through every signature.  When no sink is
   installed, [emit] is a single mutable-bool test. *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list

(* ---------------- encoding ---------------- *)

let escape_to_buffer b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  escape_to_buffer b s;
  Buffer.add_char b '"';
  Buffer.contents b

let add_float b f =
  match Float.classify_float f with
  | FP_nan | FP_infinite -> Buffer.add_string b "null"
  | _ -> Buffer.add_string b (Printf.sprintf "%.12g" f)

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (if x then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> add_float b f
  | String s ->
      Buffer.add_char b '"';
      escape_to_buffer b s;
      Buffer.add_char b '"'
  | List l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          to_buffer b x)
        l;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          escape_to_buffer b k;
          Buffer.add_string b "\":";
          to_buffer b v)
        kvs;
      Buffer.add_char b '}'

let to_string j =
  let b = Buffer.create 256 in
  to_buffer b j;
  Buffer.contents b

(* ---------------- parsing ---------------- *)

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad hex digit in \\u escape"
      in
      v := (!v * 16) + d;
      incr pos
    done;
    !v
  in
  let string_body () =
    expect '"';
    let b = Buffer.create 16 in
    let fin = ref false in
    while not !fin do
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      if c = '"' then fin := true
      else if c = '\\' then begin
        if !pos >= n then fail "truncated escape";
        let e = s.[!pos] in
        incr pos;
        match e with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
            let cp = hex4 () in
            let cp =
              (* combine a surrogate pair when present *)
              if cp >= 0xD800 && cp <= 0xDBFF && !pos + 1 < n && s.[!pos] = '\\'
                 && s.[!pos + 1] = 'u'
              then begin
                pos := !pos + 2;
                let lo = hex4 () in
                if lo >= 0xDC00 && lo <= 0xDFFF then
                  0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
                else fail "invalid low surrogate"
              end
              else cp
            in
            (match Uchar.of_int cp with
            | u -> Buffer.add_utf_8_uchar b u
            | exception Invalid_argument _ -> fail "invalid code point")
        | _ -> fail "unknown escape"
      end
      else Buffer.add_char b c
    done;
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    let numchar c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && numchar s.[!pos] do
      incr pos
    done;
    let lexeme = String.sub s start (!pos - start) in
    let is_float =
      String.exists (fun c -> c = '.' || c = 'e' || c = 'E') lexeme
    in
    if is_float then
      match float_of_string_opt lexeme with
      | Some f -> Float f
      | None -> fail "malformed number"
    else
      match int_of_string_opt lexeme with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt lexeme with
          | Some f -> Float f
          | None -> fail "malformed number")
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let kvs = ref [] in
          let fin = ref false in
          while not !fin do
            skip_ws ();
            let k = string_body () in
            skip_ws ();
            expect ':';
            let v = value () in
            kvs := (k, v) :: !kvs;
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos
            | Some '}' ->
                incr pos;
                fin := true
            | _ -> fail "expected ',' or '}'"
          done;
          Obj (List.rev !kvs)
        end
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          List []
        end
        else begin
          let items = ref [] in
          let fin = ref false in
          while not !fin do
            let v = value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos
            | Some ']' ->
                incr pos;
                fin := true
            | _ -> fail "expected ',' or ']'"
          done;
          List (List.rev !items)
        end
    | Some '"' -> String (string_body ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> number ()
    | Some c -> fail (Printf.sprintf "unexpected '%c'" c)
    | None -> fail "unexpected end of input"
  in
  match value () with
  | v ->
      skip_ws ();
      if !pos <> n then Error (Printf.sprintf "trailing garbage at byte %d" !pos)
      else Ok v
  | exception Parse_error msg -> Error msg

(* ---------------- accessors (for report/checker consumers) ---------------- *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let string_value = function String s -> Some s | _ -> None

let int_value = function
  | Int i -> Some i
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let float_value = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

(* ---------------- the sink ---------------- *)

type t = {
  chan : out_channel;
  lock : Mutex.t; (* guards [chan], [events] and [closed] *)
  mutable events : int;
  mutable closed : bool;
}

(* Per-domain line buffer (domain-local storage): the hot path appends
   complete lines here without taking any lock; [lock] is only taken when a
   full buffer — or a flush at pool join — pushes its lines to the channel.
   Because a buffer always ends at a line boundary, concurrent writer
   domains can never interleave bytes mid-line, so the JSONL stream stays
   valid under [Exec.Pool] fan-out. *)
type slot = {
  mutable owner : t option;
  slot_buf : Buffer.t;
  mutable pending : int; (* buffered-but-not-yet-counted events *)
}

let slot_key =
  Domain.DLS.new_key (fun () ->
      { owner = None; slot_buf = Buffer.create 4096; pending = 0 })

let flush_threshold = 1 lsl 16

let of_channel chan =
  { chan; lock = Mutex.create (); events = 0; closed = false }

let open_file path = of_channel (open_out path)

let flush_slot slot =
  (match slot.owner with
  | Some t when Buffer.length slot.slot_buf > 0 ->
      Mutex.protect t.lock (fun () ->
          if not t.closed then begin
            Buffer.output_buffer t.chan slot.slot_buf;
            t.events <- t.events + slot.pending
          end)
  | _ -> ());
  Buffer.clear slot.slot_buf;
  slot.pending <- 0

let flush_local () = flush_slot (Domain.DLS.get slot_key)

let flush t =
  let slot = Domain.DLS.get slot_key in
  (match slot.owner with Some o when o == t -> flush_slot slot | _ -> ());
  Mutex.protect t.lock (fun () -> if not t.closed then Stdlib.flush t.chan)

let event_count t =
  let slot = Domain.DLS.get slot_key in
  t.events
  + (match slot.owner with Some o when o == t -> slot.pending | _ -> 0)

(* the global installation point; [active] mirrors [current <> None] so the
   disabled-path check in hot code is one bool load.  Both refs are written
   only while no worker domain is running; workers see the values through
   the happens-before edge of the pool's task handoff. *)
let current : t option ref = ref None
let active = ref false
let enabled () = !active

let install t =
  current := Some t;
  active := true

let write t j =
  if not t.closed then begin
    let slot = Domain.DLS.get slot_key in
    (match slot.owner with
    | Some o when o == t -> ()
    | _ ->
        (* first write to [t] from this domain: hand any lines buffered for
           a previous sink to their owner, then adopt [t] *)
        flush_slot slot;
        slot.owner <- Some t);
    to_buffer slot.slot_buf j;
    Buffer.add_char slot.slot_buf '\n';
    slot.pending <- slot.pending + 1;
    if Buffer.length slot.slot_buf >= flush_threshold then flush_slot slot
  end

let close t =
  if not t.closed then begin
    flush t;
    Mutex.protect t.lock (fun () ->
        if not t.closed then begin
          close_out t.chan;
          t.closed <- true
        end);
    match !current with
    | Some c when c == t ->
        current := None;
        active := false
    | _ -> ()
  end

let emit ~type_ fields =
  match !current with
  | None -> ()
  | Some t ->
      write t
        (Obj
           (("type", String type_)
           :: ("ts", Float (Clock.elapsed_s ()))
           :: fields))

let with_file path f =
  let t = open_file path in
  install t;
  Fun.protect ~finally:(fun () -> close t) f
