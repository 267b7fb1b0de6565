module Graph = Graphlib.Graph

(* growable int array; rounds are append-only *)
type series = { mutable a : int array; mutable len : int }

let series_make () = { a = Array.make 64 0; len = 0 }

let series_push s x =
  if s.len = Array.length s.a then begin
    let a' = Array.make (2 * s.len) 0 in
    Array.blit s.a 0 a' 0 s.len;
    s.a <- a'
  end;
  s.a.(s.len) <- x;
  s.len <- s.len + 1

let series_to_array s = Array.sub s.a 0 s.len

type t = {
  g : Graph.t;  (* read for the busiest edge's endpoints *)
  load : int array;  (* cumulative messages per directed edge id *)
  mutable max_load : int;
  mutable argmax : int;  (* directed edge id of a busiest edge, -1 if none *)
  mutable messages : int;
  mutable words : int;
  mutable cur_messages : int;  (* current (open) round *)
  mutable cur_words : int;
  per_round_messages : series;
  per_round_words : series;
  per_round_max_load : series;
  (* fault telemetry; all zero (and absent from every rendering) on a
     clean run, so installing the counters costs recorded outputs nothing *)
  mutable dropped : int;
  mutable delayed : int;
  mutable retried : int;
  mutable cur_dropped : int;
  mutable cur_delayed : int;
  mutable cur_retried : int;
  per_round_dropped : series;
  per_round_delayed : series;
  per_round_retried : series;
}

let create g =
  {
    g;
    load = Array.make (2 * Graph.m g) 0;
    max_load = 0;
    argmax = -1;
    messages = 0;
    words = 0;
    cur_messages = 0;
    cur_words = 0;
    per_round_messages = series_make ();
    per_round_words = series_make ();
    per_round_max_load = series_make ();
    dropped = 0;
    delayed = 0;
    retried = 0;
    cur_dropped = 0;
    cur_delayed = 0;
    cur_retried = 0;
    per_round_dropped = series_make ();
    per_round_delayed = series_make ();
    per_round_retried = series_make ();
  }

let on_send t ~dir_edge ~words =
  let l = t.load.(dir_edge) + 1 in
  t.load.(dir_edge) <- l;
  if l > t.max_load then begin
    t.max_load <- l;
    t.argmax <- dir_edge
  end;
  t.messages <- t.messages + 1;
  t.words <- t.words + words;
  t.cur_messages <- t.cur_messages + 1;
  t.cur_words <- t.cur_words + words

let on_drop t =
  t.dropped <- t.dropped + 1;
  t.cur_dropped <- t.cur_dropped + 1

let on_delay t =
  t.delayed <- t.delayed + 1;
  t.cur_delayed <- t.cur_delayed + 1

let on_retry t =
  t.retried <- t.retried + 1;
  t.cur_retried <- t.cur_retried + 1

let on_round_end t =
  series_push t.per_round_messages t.cur_messages;
  series_push t.per_round_words t.cur_words;
  series_push t.per_round_max_load t.max_load;
  series_push t.per_round_dropped t.cur_dropped;
  series_push t.per_round_delayed t.cur_delayed;
  series_push t.per_round_retried t.cur_retried;
  t.cur_messages <- 0;
  t.cur_words <- 0;
  t.cur_dropped <- 0;
  t.cur_delayed <- 0;
  t.cur_retried <- 0

let rounds t = t.per_round_messages.len
let messages t = t.messages
let words t = t.words
let max_edge_load t = t.max_load

let endpoints_of_dir t dir =
  let u, v = Graph.edge t.g (dir / 2) in
  if dir land 1 = 0 then (u, v) else (v, u)

let dropped t = t.dropped
let delayed t = t.delayed
let retried t = t.retried
let round_messages t = series_to_array t.per_round_messages
let round_words t = series_to_array t.per_round_words
let max_load_series t = series_to_array t.per_round_max_load
let round_dropped t = series_to_array t.per_round_dropped
let round_delayed t = series_to_array t.per_round_delayed
let round_retried t = series_to_array t.per_round_retried

type summary = {
  rounds : int;
  messages : int;
  words : int;
  max_edge_load : int;
  busiest_edge : (int * int) option;
  peak_round_messages : int;
  mean_round_messages : float;
  dropped : int;
  delayed : int;
  retried : int;
}

let summary t =
  let r = rounds t in
  {
    rounds = r;
    messages = t.messages;
    words = t.words;
    max_edge_load = t.max_load;
    busiest_edge =
      (if t.argmax < 0 then None else Some (endpoints_of_dir t t.argmax));
    peak_round_messages =
      Array.fold_left max 0 (series_to_array t.per_round_messages);
    mean_round_messages =
      (if r = 0 then 0.0 else float_of_int t.messages /. float_of_int r);
    dropped = t.dropped;
    delayed = t.delayed;
    retried = t.retried;
  }

let summary_to_string s =
  let edge =
    match s.busiest_edge with
    | Some (u, v) -> Printf.sprintf " (%d->%d)" u v
    | None -> ""
  in
  (* fault counters render only when nonzero: clean-run lines must stay
     byte-identical to what was recorded before the fault layer existed *)
  let faults =
    (if s.dropped > 0 then Printf.sprintf " dropped=%d" s.dropped else "")
    ^ (if s.delayed > 0 then Printf.sprintf " delayed=%d" s.delayed else "")
    ^ if s.retried > 0 then Printf.sprintf " retried=%d" s.retried else ""
  in
  Printf.sprintf
    "rounds=%d msgs=%d words=%d max_edge_load=%d%s peak_round=%d mean_round=%.1f%s"
    s.rounds s.messages s.words s.max_edge_load edge s.peak_round_messages
    s.mean_round_messages faults

(* All JSON below goes through the shared [Obs.Sink] encoder, so escaping and
   float formatting are uniform with the rest of the repo's output. *)

let json_int_array a =
  Obs.Sink.List (Array.to_list (Array.map (fun x -> Obs.Sink.Int x) a))

let summary_fields s =
  [
    ("rounds", Obs.Sink.Int s.rounds);
    ("messages", Obs.Sink.Int s.messages);
    ("words", Obs.Sink.Int s.words);
    ("max_edge_load", Obs.Sink.Int s.max_edge_load);
    ( "busiest_edge",
      match s.busiest_edge with
      | Some (u, v) -> Obs.Sink.List [ Obs.Sink.Int u; Obs.Sink.Int v ]
      | None -> Obs.Sink.Null );
    ("peak_round_messages", Obs.Sink.Int s.peak_round_messages);
    ("mean_round_messages", Obs.Sink.Float s.mean_round_messages);
  ]
  @ (if s.dropped > 0 then [ ("dropped", Obs.Sink.Int s.dropped) ] else [])
  @ (if s.delayed > 0 then [ ("delayed", Obs.Sink.Int s.delayed) ] else [])
  @ if s.retried > 0 then [ ("retried", Obs.Sink.Int s.retried) ] else []

let per_round_to_json t =
  Obs.Sink.Obj
    ([
       ("messages", json_int_array (round_messages t));
       ("words", json_int_array (round_words t));
       ("max_edge_load", json_int_array (max_load_series t));
     ]
    @ (if t.dropped > 0 then
         [ ("dropped", json_int_array (round_dropped t)) ]
       else [])
    @ (if t.delayed > 0 then
         [ ("delayed", json_int_array (round_delayed t)) ]
       else [])
    @
    if t.retried > 0 then [ ("retried", json_int_array (round_retried t)) ]
    else [])

let emit ?label ?(full = false) t =
  if Obs.Sink.enabled () then begin
    let fields =
      (match label with
      | Some l -> [ ("label", Obs.Sink.String l) ]
      | None -> [])
      @ summary_fields (summary t)
      @ if full then [ ("per_round", per_round_to_json t) ] else []
    in
    Obs.Sink.emit ~type_:"trace_summary" fields
  end
