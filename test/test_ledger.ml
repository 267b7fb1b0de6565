(* The bench-ledger tools, driven from outside as subprocesses:
   tools/bench_diff.exe (the regression gate), tools/jsonl_check.exe
   --ledger (the validator) and bench/main.exe's argument check.

   Every ledger here is built from ledger_fae69a3.json, a frozen copy of
   the rev fae69a3 baseline entry with its per-experiment spans stripped.
   The "pinned" group carries its own copy of the gate's bounds and never
   reads the gate's table, so a change in a bound, a metric name or the
   number of gated metrics fails it.  The "strict" group pins the
   rejections: fields the gate cannot see, rows the current entry lost,
   and bad command lines. *)

module J = Obs.Sink

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let here = Filename.dirname Sys.executable_name
let exe rel = Filename.concat here rel
let bench_diff = exe "../tools/bench_diff.exe"
let jsonl_check = exe "../tools/jsonl_check.exe"
let bench = exe "../bench/main.exe"

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let lines s = String.split_on_char '\n' s |> List.filter (fun l -> l <> "")

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

(* run [prog args] with stdout and stderr merged; (exit code, output) *)
let run prog args =
  let out = Filename.temp_file "ledger" ".out" in
  let code =
    Sys.command (Filename.quote_command prog args ~stdout:out ~stderr:out)
  in
  let s = read_file out in
  Sys.remove out;
  (code, s)

(* ---------- JSON with exact floats ---------- *)

(* bounds are computed here exactly as the gate computes them, so floats
   are written with 17 digits to survive the round trip bit for bit *)
let rec write b = function
  | J.Float f -> Printf.bprintf b "%.17g" f
  | J.List l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          write b x)
        l;
      Buffer.add_char b ']'
  | J.Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Printf.bprintf b "%s:" (J.json_string k);
          write b v)
        kvs;
      Buffer.add_char b '}'
  | j -> Buffer.add_string b (J.to_string j)

let write_ledger entries =
  let path = Filename.temp_file "ledger" ".jsonl" in
  let b = Buffer.create 65536 in
  List.iter
    (fun e ->
      write b e;
      Buffer.add_char b '\n')
    entries;
  let oc = open_out_bin path in
  Buffer.output_buffer oc b;
  close_out oc;
  path

let baseline =
  match J.parse (read_file (exe "ledger_fae69a3.json")) with
  | Ok j -> j
  | Error e -> failwith ("ledger_fae69a3.json: " ^ e)

(* ---------- editing entries ---------- *)

let rec update path f j =
  match (path, j) with
  | [], _ -> f j
  | k :: rest, J.Obj kvs ->
      J.Obj (List.map (fun (k', v) -> (k', if k' = k then update rest f v else v)) kvs)
  | _ -> j

let set path v = update path (fun _ -> v)

let rec remove path j =
  match (path, j) with
  | [ k ], J.Obj kvs -> J.Obj (List.filter (fun (k', _) -> k' <> k) kvs)
  | k :: rest, J.Obj kvs ->
      J.Obj (List.map (fun (k', v) -> (k', if k' = k then remove rest v else v)) kvs)
  | _ -> j

let rows path f = update path (function J.List l -> J.List (f l) | j -> j)
let map_rows path f = rows path (List.map f)
let first_row path f = rows path (List.mapi (fun i r -> if i = 0 then f r else r))
let get_str k j = Option.bind (J.member k j) J.string_value

let as_current e =
  e |> set [ "rev" ] (J.String "cur") |> set [ "blessed" ] (J.Bool false)

(* ---------- the documented thresholds ---------- *)

type gate = Rise of float * float | Drop of float * float

(* [time]: normalized by the calibration ratio; [int]: an integer count *)
type metric = { field : string list; gate : gate; time : bool; int : bool }

let rise ?(time = false) ?(int = false) field rel eps =
  { field = String.split_on_char '.' field; gate = Rise (rel, eps); time; int }

let drop field rel floor =
  { field = [ field ]; gate = Drop (rel, floor); time = false; int = false }

(* where the metrics live: an object, or a list of rows keyed by [key] *)
type place = Obj of string list | Rows of string list * (J.json -> string)

let thresholds =
  let row_key k j = Option.value ~default:"?" (get_str k j) in
  [
    ( Obj [],
      (fun _ m -> m),
      [
        rise ~time:true "total_ms" 0.12 250.0;
        rise ~time:true "total_cpu_ms" 0.12 250.0;
      ] );
    ( Rows ([ "experiments" ], row_key "id"),
      (fun k m -> k ^ "." ^ m),
      [
        rise ~time:true "wall_ms" 0.15 250.0;
        rise ~time:true "cpu_ms" 0.15 250.0;
        rise "minor_words" 0.05 1e6;
        rise ~int:true "max_rss_kb" 0.25 51200.0;
        drop "cache_hit_rate" 0.0 0.10;
        rise ~int:true "congestion.rounds" 0.05 16.0;
        rise ~int:true "congestion.messages" 0.05 512.0;
        rise ~int:true "congestion.max_edge_load" 0.05 2.0;
      ] );
    ( Rows ([ "alloc_probes" ], row_key "name"),
      (fun k m -> Printf.sprintf "alloc[%s].%s" k m),
      [ rise "words_per_round" 0.05 100.0 ] );
    ( Rows ([ "scale"; "families" ], row_key "family"),
      (fun k m -> Printf.sprintf "scale[%s].%s" k m),
      [
        rise ~time:true "build_ms" 0.15 250.0;
        rise ~time:true "bfs_ms" 0.15 250.0;
        rise ~time:true "mst_ms" 0.15 250.0;
        rise ~time:true "cpu_ms" 0.15 250.0;
        rise "minor_words" 0.05 1e6;
        rise ~int:true "max_rss_kb" 0.25 51200.0;
      ] );
    ( Rows ([ "asynch"; "rows" ], fun j -> row_key "label" j ^ "@" ^ row_key "model" j),
      (fun k m -> Printf.sprintf "asynch[%s].%s" k m),
      [
        rise ~int:true "rounds" 0.05 2.0;
        rise "sim_time" 0.05 2.0;
        rise ~int:true "data_msgs" 0.05 64.0;
        rise ~int:true "ctrl_msgs" 0.05 256.0;
        rise ~int:true "events" 0.05 256.0;
        rise ~int:true "queue_hwm" 0.05 64.0;
      ] );
    ( Obj [ "asynch" ],
      (fun _ m -> "asynch." ^ m),
      [ rise ~time:true "wall_ms" 0.15 250.0 ] );
    ( Obj [ "serve" ],
      (fun _ m -> "serve." ^ m),
      [
        drop "qps" 0.15 25.0;
        drop "cache_hit_rate" 0.0 0.10;
        rise ~time:true "p50_ms" 0.50 10.0;
        rise ~time:true "p99_ms" 0.50 25.0;
        rise "reject_rate" 0.0 0.05;
      ] );
  ]

(* rewrite every gated metric of [e] with [f metric value]; the names the
   gate reports them under, in table order *)
let map_metrics f e =
  let names = ref [] in
  let apply key name ms row =
    List.fold_left
      (fun row m ->
        names := name key (String.concat "." m.field) :: !names;
        update m.field (f m) row)
      row ms
  in
  let e =
    List.fold_left
      (fun e (place, name, ms) ->
        match place with
        | Obj path -> update path (apply "" name ms) e
        | Rows (path, key) -> map_rows path (fun r -> apply (key r) name ms r) e)
      e thresholds
  in
  (e, List.rev !names)

let num v = Option.get (J.float_value v)

let bound m v =
  let b = num v in
  match m.gate with
  | Rise (rel, eps) -> (b *. (1.0 +. rel)) +. eps
  | Drop (rel, floor) -> (b *. (1.0 -. rel)) -. floor

let at_bound m v =
  let x = bound m v in
  match m.gate with
  | Rise _ when m.int -> J.Int (int_of_float (Float.floor x))
  | Drop _ when m.int -> J.Int (int_of_float (Float.ceil x))
  | _ -> J.Float x

let past_bound m v =
  let x = bound m v in
  match m.gate with
  | Rise _ when m.int -> J.Int (int_of_float (Float.floor x) + 1)
  | Drop _ when m.int -> J.Int (int_of_float (Float.ceil x) - 1)
  | Rise _ -> J.Float (Float.succ x)
  | Drop _ -> J.Float (Float.pred x)

let expected_count = 262

(* "REGRESSION <name>: baseline ..." -> name *)
let regression_name line =
  let p = "REGRESSION " in
  let lp = String.length p in
  if String.length line > lp && String.sub line 0 lp = p then
    let rest = String.sub line lp (String.length line - lp) in
    let rec cut i =
      if i + 10 > String.length rest then None
      else if String.sub rest i 10 = ": baseline" then Some (String.sub rest 0 i)
      else cut (i + 1)
    in
    cut 0
  else None

let diff_against_baseline current =
  run bench_diff [ write_ledger [ baseline; as_current current ] ]

(* ---------- pinned: the gate ---------- *)

let test_at_bound () =
  let current, names = map_metrics at_bound baseline in
  check_int "gated metrics in the fixture" expected_count (List.length names);
  let code, out = diff_against_baseline current in
  check_int ("exit 0\n" ^ out) 0 code;
  check_bool ("262 metrics within thresholds\n" ^ out) true
    (contains out "262 metrics within thresholds")

let test_past_bound () =
  let current, names = map_metrics past_bound baseline in
  let code, out = diff_against_baseline current in
  check_int ("exit 1\n" ^ out) 1 code;
  let reported = List.filter_map regression_name (lines out) in
  check_int "REGRESSION lines" expected_count (List.length reported);
  Alcotest.(check (list string))
    "every metric under its name" (List.sort compare names)
    (List.sort compare reported)

let test_time_normalized () =
  let double v = J.Float (2.0 *. num v) in
  let current, _ =
    map_metrics (fun m v -> if m.time then double v else v) baseline
  in
  let current = update [ "calib_cpu_ms" ] double current in
  let code, out = diff_against_baseline current in
  check_int ("exit 0\n" ^ out) 0 code;
  check_bool ("262 metrics within thresholds\n" ^ out) true
    (contains out "262 metrics within thresholds")

(* ---------- pinned: the validator ---------- *)

(* the [file:line:] prefixes in [out] *)
let reported_lines file out =
  List.filter_map
    (fun l ->
      let p = file ^ ":" in
      let lp = String.length p in
      if String.length l > lp && String.sub l 0 lp = p then
        match String.index_from_opt l lp ':' with
        | Some i -> int_of_string_opt (String.sub l lp (i - lp))
        | None -> None
      else None)
    (lines out)

let validate_each name entries =
  let file = write_ledger entries in
  let code, out = run jsonl_check [ "--ledger"; file ] in
  check_int (name ^ ": exit 1\n" ^ out) 1 code;
  let seen = reported_lines file out in
  List.iteri
    (fun i _ ->
      check_bool
        (Printf.sprintf "%s: line %d reported\n%s" name (i + 1) out)
        true
        (List.mem (i + 1) seen))
    entries;
  (file, out)

let broken_entries =
  let e = as_current baseline in
  [
    set [ "schema" ] (J.String "bench-ledger/v1") e;
    remove [ "rev" ] e;
    set [ "date" ] (J.String "17/10/2026") e;
    set [ "date" ] (J.String "2026-10-16") e;
    remove [ "total_ms" ] e;
    set [ "experiments" ] (J.String "E1") e;
    first_row [ "experiments" ] (remove [ "id" ]) e;
    first_row [ "experiments" ] (remove [ "wall_ms" ]) e;
    set [ "serve"; "qps" ] (J.Int 0) e;
    update [ "serve" ]
      (fun sv ->
        let p50 = num (Option.get (J.member "p50_ms" sv)) in
        set [ "p99_ms" ] (J.Float (p50 /. 2.0)) sv)
      e;
    set [ "serve"; "reject_rate" ] (J.Float 1.5) e;
    remove [ "scale"; "mst_strategy" ] e;
    set [ "scale"; "families" ] (J.List []) e;
    first_row [ "scale"; "families" ] (set [ "bfs_ms" ] (J.Float (-1.0))) e;
    remove [ "asynch"; "wall_ms" ] e;
    first_row [ "asynch"; "rows" ] (set [ "events" ] (J.Float 38655.5)) e;
    first_row [ "asynch"; "rows" ] (remove [ "model" ]) e;
  ]

let test_validator_accepts_baseline () =
  let file = write_ledger [ baseline; as_current baseline ] in
  let code, out = run jsonl_check [ "--ledger"; file ] in
  check_int ("exit 0\n" ^ out) 0 code

let test_validator_rules () =
  check_int "broken entries" 17 (List.length broken_entries);
  ignore (validate_each "17 rules" broken_entries)

(* ---------- strict: what the gate cannot see ---------- *)

let test_gate_validates () =
  let current =
    as_current baseline
    |> map_rows [ "experiments" ] (fun r ->
           r |> remove [ "cpu_ms" ] |> remove [ "minor_words" ]
           |> remove [ "congestion"; "messages" ])
    |> remove [ "serve"; "p99_ms" ]
  in
  let code, out = run bench_diff [ write_ledger [ baseline; current ] ] in
  check_int ("exit 2\n" ^ out) 2 code;
  List.iter
    (fun f -> check_bool (f ^ " named\n" ^ out) true (contains out f))
    [ "cpu_ms"; "minor_words"; "congestion.messages"; "p99_ms" ]

let test_missing_rows_named () =
  let drop_row path pred = rows path (List.filter (fun r -> not (pred r))) in
  let current =
    as_current baseline
    |> drop_row [ "experiments" ] (fun r -> get_str "id" r = Some "E5")
    |> drop_row [ "asynch"; "rows" ] (fun r ->
           get_str "label" r = Some "grid-16x16/bfs"
           && get_str "model" r = Some "const")
  in
  let code, out = run bench_diff [ write_ledger [ baseline; current ] ] in
  check_int ("exit 1\n" ^ out) 1 code;
  List.iter
    (fun name ->
      check_bool (name ^ " named\n" ^ out) true
        (List.exists (fun l -> contains l name && not (contains l "FAIL")) (lines out)))
    [ "E5"; "asynch[grid-16x16/bfs@const]" ]

let test_validator_names_field () =
  let e = as_current baseline in
  let cases =
    [
      ("cpu_ms", first_row [ "experiments" ] (remove [ "cpu_ms" ]) e);
      ( "congestion.messages",
        first_row [ "experiments" ] (remove [ "congestion"; "messages" ]) e );
      ( "words_per_round",
        first_row [ "alloc_probes" ] (remove [ "words_per_round" ]) e );
      ("experiments", set [ "experiments" ] (J.List []) e);
      ("serve", set [ "serve" ] J.Null e);
    ]
  in
  let file, out = validate_each "5 silent cases" (List.map snd cases) in
  List.iteri
    (fun i (field, _) ->
      let prefix = Printf.sprintf "%s:%d:" file (i + 1) in
      check_bool
        (Printf.sprintf "line %d names %s\n%s" (i + 1) field out)
        true
        (List.exists (fun l -> contains l prefix && contains l field) (lines out)))
    cases

(* ---------- strict: bad command lines ---------- *)

let test_unknown_baseline_rev () =
  let code, out =
    run bench_diff
      [ "--baseline"; "nosuchrev"; write_ledger [ baseline; as_current baseline ] ]
  in
  check_int ("exit 2\n" ^ out) 2 code

let test_bench_unknown_only () =
  let ledger = Filename.temp_file "ledger" ".jsonl" in
  Sys.remove ledger;
  let code, out = run bench [ "--only"; "e1"; "--no-timing"; "--ledger"; ledger ] in
  check_int ("exit 2\n" ^ out) 2 code;
  check_bool ("valid ids listed\n" ^ out) true
    (contains out "E1" && contains out "AS1");
  check_bool "nothing appended" false (Sys.file_exists ledger)

let test_jsonl_check_bad_input () =
  let file = write_ledger [ baseline ] in
  List.iter
    (fun args ->
      let code, out = run jsonl_check args in
      let what = String.concat " " args in
      check_int (what ^ ": exit 2\n" ^ out) 2 code;
      check_bool
        (what ^ ": one jsonl_check line\n" ^ out)
        true
        (String.length out > 13
        && String.sub out 0 13 = "jsonl_check: "
        && not (contains out "exception")))
    [
      [ "/nonexistent/ledger.jsonl" ];
      [ "--ledger"; "/nonexistent/ledger.jsonl" ];
      [ "--min-spans"; "x"; file ];
      [ "--max-p99"; "x"; file ];
    ]

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "ledger"
    [
      ( "pinned",
        [
          case "262 metrics at their bound pass" test_at_bound;
          case "262 metrics past their bound fail" test_past_bound;
          case "doubled time and calibration pass" test_time_normalized;
          case "validator accepts the baseline" test_validator_accepts_baseline;
          case "validator: 17 rules, each line named" test_validator_rules;
        ] );
      ( "strict",
        [
          case "gate rejects entries missing metrics" test_gate_validates;
          case "gate names baseline rows the current lost" test_missing_rows_named;
          case "validator names the missing field" test_validator_names_field;
          case "unknown baseline rev exits 2" test_unknown_baseline_rev;
          case "bench --only with an unknown id exits 2" test_bench_unknown_only;
          case "jsonl_check bad input exits 2" test_jsonl_check_bad_input;
        ] );
    ]
