(* The bench ledger: schema, file access, and the one table that drives
   validation ([validate], used by [append] and jsonl_check) and the
   regression gate ([gate], used by bench_diff). *)

let schema = "bench-ledger/v2"

(* ---------------- the table ---------------- *)

type kind = Num | Int | Str | Tag of string | Date

(* the values a field may take; [Not_below f]: at least the row's field f;
   [Nonzero_if f]: non-negative, and positive when the row's f is *)
type range =
  | Any
  | Nonneg
  | Positive
  | Fraction
  | Not_below of string
  | Nonzero_if of string

(* a regression is current > baseline * (1 + rel) + eps for a Rise, and
   current < baseline * (1 - rel) - floor for a Drop: the absolute term
   keeps tiny wobbles on sub-millisecond experiments from tripping the
   relative bound *)
type gate =
  | Rise of { rel : float; eps : float }
  | Drop of { rel : float; floor : float }

type field = {
  name : string;  (** dotted path inside the row: ["congestion.messages"] *)
  kind : kind;
  range : range;
  gate : gate option;
  time : bool;  (** divided by the calibration ratio before gating *)
  raw : string list;  (** row keys whose [time] metric is gated as recorded *)
  event : bool;  (** also required in the section's JSONL event *)
}

(* where a section lives: the entry itself, a member object, or a list of
   rows keyed by the string fields [keys] (joined with '@') and reported
   under [row key] *)
type place =
  | Top
  | Obj of string
  | Rows of { path : string list; keys : string list; row : string -> string }

type section = {
  place : place;
  ran_by : string option;  (** the experiment whose run makes it required *)
  event : string option;  (** the JSONL event type whose payload is a row *)
  fields : field list;
}

let section ?ran_by ?event place fields = { place; ran_by; event; fields }

let rows path keys prefix =
  let row k = if prefix = "" then k else prefix ^ "[" ^ k ^ "]" in
  Rows { path; keys; row }

let field ?(range = Nonneg) ?gate ?(event = true) kind name =
  { name; kind; range; gate; time = false; raw = []; event }

(* validated, never gated *)
let need ?(range = Any) kind name = field ~range kind name

let rise ?(kind = Num) ?range ?event name rel eps =
  field ?range ?event ~gate:(Rise { rel; eps }) kind name

let drop ?range name rel floor = field ?range ~gate:(Drop { rel; floor }) Num name

(* Time metrics (wall clock, and CPU via Unix.times, user+sys) are divided
   by the calibration ratio first: uniform machine drift (frequency
   scaling, co-tenant load) moves the experiments and the fixed-work spin
   recorded in calib_cpu_ms together and cancels, while a real slowdown
   moves only the experiments and survives.  What is left sets the time
   bounds: on a shared 2-vCPU host the memory-bound S1 still wobbles up to
   ~9% run to run after normalization (DRAM-bandwidth contention slows it
   without moving the ALU spin), so time gets 12-15% + 250 ms.  A row in
   [raw] is the exception: its time is not CPU work, so it does not move
   with the spin, and dividing it by the ratio would turn a fast host into
   a regression. *)
let time ?(raw = []) ?range name rel eps =
  { (rise ?range name rel eps) with time = true; raw }

(* Allocation, congestion and the simulated asynch counts are (near-)
   deterministic and keep tight 5% bounds: they are the low-noise signal.
   They are also what makes the BENCH_SYNTH_SLOWDOWN self-test certain to
   fail: its burn allocates like real work, so the injected minor words
   trip the 5% allocation bound on a dozen experiments even when time
   noise absorbs the slowdown itself.  Peak RSS moves with the allocator's
   timing and gets 25% + 50 MiB. *)
let sections =
  [
    section Top
      [
        need (Tag schema) "schema";
        need Str "rev";
        need Date "date";
        time "total_ms" 0.12 250.0;
        time "total_cpu_ms" 0.12 250.0;
        need ~range:Nonneg Num "calib_cpu_ms";
      ];
    section
      (rows [ "experiments" ] [ "id" ] "")
      [
        (* SV1's wall is set by its arrival schedule (160 queries at 400
           qps, in two phases), not by the host's speed *)
        time ~raw:[ "SV1" ] "wall_ms" 0.15 250.0;
        time "cpu_ms" 0.15 250.0;
        rise "minor_words" 0.05 1e6;
        rise ~kind:Int "max_rss_kb" 0.25 51200.0;
        (* hit-rate regressions are drops *)
        drop ~range:Any "cache_hit_rate" 0.0 0.10;
        rise ~kind:Int "congestion.rounds" 0.05 16.0;
        rise ~kind:Int "congestion.messages" 0.05 512.0;
        rise ~kind:Int "congestion.max_edge_load" 0.05 2.0;
      ];
    (* steady-state CONGEST allocation: minor words per simulated round *)
    section
      (rows [ "alloc_probes" ] [ "name" ] "alloc")
      [ rise "words_per_round" 0.05 100.0 ];
    section ~ran_by:"S1" (Obj "scale") [ need Str "mst_strategy" ];
    (* S1's million-node build/BFS/MST phases are memory-bound *)
    section
      (rows [ "scale"; "families" ] [ "family" ] "scale")
      [
        time "build_ms" 0.15 250.0;
        time "bfs_ms" 0.15 250.0;
        time "mst_ms" 0.15 250.0;
        time "cpu_ms" 0.15 250.0;
        rise "minor_words" 0.05 1e6;
        rise ~kind:Int "max_rss_kb" 0.25 51200.0;
      ];
    (* every AS1 cell, simulated time included, is a pure function of the
       seeds: it moves only when the executor's semantics move *)
    section ~event:"asynch_summary"
      (rows [ "asynch"; "rows" ] [ "label"; "model" ] "asynch")
      [
        rise ~kind:Int "rounds" 0.05 2.0;
        rise "sim_time" 0.05 2.0;
        rise ~kind:Int "data_msgs" 0.05 64.0;
        rise ~kind:Int "ctrl_msgs" 0.05 256.0;
        (* at least the spontaneous pulse is scheduled *)
        rise ~kind:Int ~range:(Nonzero_if "rounds") "events" 0.05 256.0;
        rise ~kind:Int "queue_hwm" 0.05 64.0;
      ];
    section ~ran_by:"AS1" (Obj "asynch") [ time "wall_ms" 0.15 250.0 ];
    (* SV1's warm phase.  Tail latency of an open-loop run on a shared host
       is the noisiest number in the ledger, so the quantiles get 50% and
       catch only order-of-magnitude serving regressions *)
    section ~ran_by:"SV1" ~event:"serve_summary" (Obj "serve")
      [
        drop ~range:Positive "qps" 0.15 25.0;
        drop ~range:Fraction "cache_hit_rate" 0.0 0.10;
        time "p50_ms" 0.50 10.0;
        time ~range:(Not_below "p50_ms") "p99_ms" 0.50 25.0;
        rise ~range:Fraction ~event:false "reject_rate" 0.0 0.05;
      ];
  ]

(* ---------------- reading rows ---------------- *)

let lookup name j =
  List.fold_left
    (fun acc k -> Option.bind acc (Sink.member k))
    (Some j) (String.split_on_char '.' name)

let num name j = Option.bind (lookup name j) Sink.float_value
let str name j = Option.bind (Sink.member name j) Sink.string_value

let row_name s key =
  match s.place with Top -> "" | Obj name -> name | Rows r -> r.row key

let metric s key f =
  match row_name s key with "" -> f.name | row -> row ^ "." ^ f.name

let row_key keys r =
  let vals = List.filter_map (fun k -> str k r) keys in
  if List.length vals = List.length keys then Some (String.concat "@" vals)
  else None

(* the member a Rows section points at; None when an enclosing object is
   absent (the object's own section reports that) *)
let rec row_list path j =
  match path with
  | [] -> None
  | [ last ] -> Some (Sink.member last j)
  | k :: rest -> (
      match Sink.member k j with
      | Some (Sink.Obj _ as o) -> row_list rest o
      | _ -> None)

(* the keyed rows of section [s] in an entry, and what is wrong with the
   section's shape *)
let rows_of s entry =
  match s.place with
  | Top -> ([ ("", entry) ], [])
  | Obj name -> (
      let ran id =
        match Sink.member "experiments" entry with
        | Some (Sink.List l) -> List.exists (fun e -> str "id" e = Some id) l
        | _ -> false
      in
      match (Sink.member name entry, s.ran_by) with
      | Some (Sink.Obj _ as o), _ -> ([ ("", o) ], [])
      | (None | Some Sink.Null), Some id when ran id ->
          ([], [ Printf.sprintf "%s: %s ran but the section is missing" name id ])
      | (None | Some Sink.Null), _ -> ([], [])
      | Some _, _ -> ([], [ name ^ ": not an object" ]))
  | Rows { path; keys; _ } -> (
      let where = String.concat "." path in
      match row_list path entry with
      | None -> ([], [])
      | Some None -> ([], [ where ^ ": missing" ])
      | Some (Some (Sink.List [])) -> ([], [ where ^ ": empty list" ])
      | Some (Some (Sink.List l)) ->
          List.mapi
            (fun i r ->
              match row_key keys r with
              | Some k -> Either.Left (k, r)
              | None ->
                  Either.Right
                    (Printf.sprintf "%s[%d]: no string %s" where i
                       (String.concat "/" keys)))
            l
          |> List.partition_map Fun.id
      | Some (Some _) -> ([], [ where ^ ": not a list" ]))

(* ---------------- validation ---------------- *)

let is_iso_date s =
  String.length s = 10
  && String.for_all (fun c -> c = '-' || (c >= '0' && c <= '9')) s
  && s.[4] = '-'
  && s.[7] = '-'

let in_range row f x =
  let bad fmt = Printf.ksprintf Option.some fmt in
  match f.range with
  | Any -> None
  | Positive -> if x > 0.0 then None else bad "%g not positive" x
  | Fraction -> if x >= 0.0 && x <= 1.0 then None else bad "%g outside [0,1]" x
  | Not_below other -> (
      match num other row with
      | Some y when x < y -> bad "%g below %s %g" x other y
      | _ -> None)
  | (Nonneg | Nonzero_if _) when x < 0.0 -> bad "negative (%g)" x
  | Nonzero_if other -> (
      match num other row with
      | Some y when x = 0.0 && y > 0.0 -> bad "zero while %s is %g" other y
      | _ -> None)
  | Nonneg -> None

let problem row f =
  match (f.kind, lookup f.name row) with
  | _, None -> Some "missing"
  | Str, Some (Sink.String _) -> None
  | Tag t, Some (Sink.String s) ->
      if s = t then None else Some (Printf.sprintf "%S, expected %S" s t)
  | Date, Some (Sink.String s) ->
      if is_iso_date s then None
      else Some (Printf.sprintf "malformed date %S (want YYYY-MM-DD)" s)
  | (Str | Tag _ | Date), Some _ -> Some "not a string"
  | (Int | Num), Some (Sink.Int i) -> in_range row f (float_of_int i)
  | Num, Some (Sink.Float x) -> in_range row f x
  | Int, Some _ -> Some "not an int"
  | Num, Some _ -> Some "not a number"

let check_row ?(only = fun _ -> true) s key row =
  List.filter_map
    (fun f ->
      if only f then Option.map (fun p -> metric s key f ^ ": " ^ p) (problem row f)
      else None)
    s.fields

let validate entry =
  List.concat_map
    (fun s ->
      let rows, shape = rows_of s entry in
      shape @ List.concat_map (fun (k, r) -> check_row s k r) rows)
    sections

let check_event ~type_ j =
  match List.find_opt (fun s -> s.event = Some type_) sections with
  | None -> []
  | Some s -> (
      let keys = match s.place with Rows r -> r.keys | Top | Obj _ -> [] in
      match row_key keys j with
      | Some k -> check_row ~only:(fun f -> f.event) s k j
      | None -> [ "no string " ^ String.concat "/" keys ])

(* ---------------- the file ---------------- *)

type line = { lineno : int; text : string; json : (Sink.json, string) result }

let read path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
      let rec go n acc =
        match input_line ic with
        | exception End_of_file ->
            close_in ic;
            Ok (List.rev acc)
        | exception Sys_error e ->
            close_in ic;
            Error e
        | text when String.trim text = "" -> go (n + 1) acc
        | text -> go (n + 1) ({ lineno = n; text; json = Sink.parse text } :: acc)
      in
      go 1 []

let append path entry =
  match validate entry with
  | [] ->
      let oc = open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path in
      output_string oc (Sink.to_string entry);
      output_char oc '\n';
      close_out oc;
      Ok ()
  | problems -> Error problems

let rewrite path lines =
  let oc = open_out path in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc

let check_file lines =
  let last_date = ref "" in
  List.concat_map
    (fun l ->
      match l.json with
      | Error e -> [ (l.lineno, "parse error: " ^ e) ]
      | Ok j ->
          let order =
            match str "date" j with
            | Some d when is_iso_date d && d < !last_date ->
                (* ISO dates compare lexicographically *)
                [
                  Printf.sprintf
                    "date %s precedes %s on an earlier line (ledger must be \
                     append-only)"
                    d !last_date;
                ]
            | Some d when is_iso_date d ->
                last_date := d;
                []
            | _ -> []
          in
          List.map (fun m -> (l.lineno, m)) (validate j @ order))
    lines

(* ---------------- the gate ---------------- *)

let mode j =
  match Sink.member "mode" j with
  | Some m ->
      Printf.sprintf "only=%s cache=%b"
        (Option.value ~default:"(all)" (str "only" m))
        (Sink.member "cache" m <> Some (Sink.Bool false))
  | None -> "(unknown)"

type verdict = {
  checked : int;
  regressions : string list;
  missing : string list;
  speed : float;
}

let show v =
  if Float.abs v >= 1000.0 then Printf.sprintf "%.0f" v else Printf.sprintf "%.4g" v

let regression f ~name ~b ~c =
  let change =
    if b > 0.0 then Printf.sprintf "%+.1f%%" (100.0 *. ((c /. b) -. 1.0))
    else "from zero"
  in
  let report threshold =
    Some
      (Printf.sprintf "REGRESSION %s: baseline %s -> current %s (%s, threshold %s)"
         name (show b) (show c) change threshold)
  in
  match f.gate with
  | Some (Rise { rel; eps }) when c > (b *. (1.0 +. rel)) +. eps ->
      report (Printf.sprintf "+%g%% + %g" (100.0 *. rel) eps)
  | Some (Drop { rel; floor }) when c < (b *. (1.0 -. rel)) -. floor ->
      report (Printf.sprintf "-%g%% - %g" (100.0 *. rel) floor)
  | _ -> None

let gate ~baseline ~current =
  let speed =
    match (num "calib_cpu_ms" baseline, num "calib_cpu_ms" current) with
    | Some b, Some c when b > 0.0 && c > 0.0 -> c /. b
    | _ -> 1.0
  in
  let checked = ref 0 and regressions = ref [] and missing = ref [] in
  let compare s key b c =
    List.iter
      (fun f ->
        match (f.gate, num f.name b, num f.name c) with
        | Some _, Some b, Some c ->
            incr checked;
            let c = if f.time && not (List.mem key f.raw) then c /. speed else c in
            Option.iter
              (fun r -> regressions := r :: !regressions)
              (regression f ~name:(metric s key f) ~b ~c)
        | _ -> ())
      s.fields
  in
  List.iter
    (fun s ->
      let base = fst (rows_of s baseline) and cur = fst (rows_of s current) in
      List.iter
        (fun (k, c) ->
          Option.iter (fun b -> compare s k b c) (List.assoc_opt k base))
        cur;
      List.iter
        (fun (k, _) ->
          if not (List.mem_assoc k cur) then missing := row_name s k :: !missing)
        base)
    sections;
  {
    checked = !checked;
    regressions = List.rev !regressions;
    missing = List.rev !missing;
    speed;
  }
