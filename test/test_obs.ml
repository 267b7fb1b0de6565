(* Tests for the observability subsystem: the shared JSON encoder, the sink
   event stream, span nesting/aggregation, and the metrics registry.

   The JSONL round-trip tests deliberately parse sink output with a minimal
   JSON reader defined HERE, independent of [Obs.Sink.parse], so an encoder
   bug cannot be masked by a matching bug in the library's own reader. *)

module Graph = Graphlib.Graph
module Generators = Graphlib.Generators
module Spanning = Graphlib.Spanning

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ---------- an independent, minimal JSON reader ---------- *)

type jv =
  | JNull
  | JBool of bool
  | JNum of float
  | JStr of string
  | JArr of jv list
  | JObj of (string * jv) list

exception Bad of string

let read_json (s : string) : jv =
  let pos = ref 0 in
  let len = String.length s in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let next () =
    if !pos >= len then raise (Bad "eof");
    let c = s.[!pos] in
    incr pos;
    c
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        incr pos;
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if next () <> c then raise (Bad (Printf.sprintf "expected %c" c))
  in
  let hex4 () =
    let v = ref 0 in
    for _ = 1 to 4 do
      let c = next () in
      let d =
        match c with
        | '0' .. '9' -> Char.code c - Char.code '0'
        | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
        | _ -> raise (Bad "hex")
      in
      v := (!v * 16) + d
    done;
    !v
  in
  let read_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents b
      | '\\' ->
          (match next () with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
              let cp = hex4 () in
              let cp =
                if cp >= 0xD800 && cp <= 0xDBFF then begin
                  expect '\\';
                  expect 'u';
                  let lo = hex4 () in
                  0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
                end
                else cp
              in
              Buffer.add_utf_8_uchar b (Uchar.of_int cp)
          | c -> raise (Bad (Printf.sprintf "bad escape %c" c)));
          go ()
      | c -> (* raw byte (UTF-8 passthrough) *)
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let read_number () =
    let start = !pos in
    let number_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> number_char c | None -> false) do
      incr pos
    done;
    float_of_string (String.sub s start (!pos - start))
  in
  let rec read_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> JStr (read_string ())
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          JObj []
        end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let k = read_string () in
            skip_ws ();
            expect ':';
            let v = read_value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            match next () with
            | ',' -> members ()
            | '}' -> ()
            | _ -> raise (Bad "object")
          in
          members ();
          JObj (List.rev !fields)
        end
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          JArr []
        end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = read_value () in
            items := v :: !items;
            skip_ws ();
            match next () with
            | ',' -> elements ()
            | ']' -> ()
            | _ -> raise (Bad "array")
          in
          elements ();
          JArr (List.rev !items)
        end
    | Some 't' ->
        pos := !pos + 4;
        JBool true
    | Some 'f' ->
        pos := !pos + 5;
        JBool false
    | Some 'n' ->
        pos := !pos + 4;
        JNull
    | _ -> JNum (read_number ())
  in
  let v = read_value () in
  skip_ws ();
  if !pos <> len then raise (Bad "trailing garbage");
  v

let jfield k = function
  | JObj fields -> List.assoc k fields
  | _ -> raise (Bad "not an object")

let jstr = function JStr x -> x | _ -> raise (Bad "not a string")
let jnum = function JNum x -> x | _ -> raise (Bad "not a number")

(* lower [Obs.Sink.json] into the test's [jv] for structural comparison *)
let rec jv_of_sink (j : Obs.Sink.json) : jv =
  match j with
  | Obs.Sink.Null -> JNull
  | Obs.Sink.Bool b -> JBool b
  | Obs.Sink.Int i -> JNum (float_of_int i)
  | Obs.Sink.Float f -> if Float.is_finite f then JNum f else JNull
  | Obs.Sink.String s -> JStr s
  | Obs.Sink.List l -> JArr (List.map jv_of_sink l)
  | Obs.Sink.Obj l -> JObj (List.map (fun (k, v) -> (k, jv_of_sink v)) l)

(* run [f] with a fresh installed sink; returns f's result and the emitted
   lines *)
let with_capture f =
  let path = Filename.temp_file "obs_test" ".jsonl" in
  let r = Obs.Sink.with_file path f in
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  (r, List.rev !lines)

let with_spans f =
  Obs.Span.reset ();
  Obs.Span.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Span.set_enabled false; Obs.Span.reset ()) f

(* ---------- encoder ---------- *)

let test_encoder_escaping () =
  check_string "control chars are \\u-escaped" "\"a\\u0001b\\u001fc\""
    (Obs.Sink.json_string "a\001b\031c");
  check_string "quote and backslash" "\"q\\\"w\\\\e\""
    (Obs.Sink.json_string "q\"w\\e");
  check_string "short escapes" "\"\\n\\r\\t\\b\\f\""
    (Obs.Sink.json_string "\n\r\t\b\012");
  check_string "utf-8 passthrough" "\"\xce\xbb\"" (Obs.Sink.json_string "\xce\xbb");
  (* the bug this encoder replaces: OCaml %S writes decimal escapes *)
  check "OCaml %S would emit non-JSON here" true
    (Printf.sprintf "%S" "\001" = "\"\\001\"");
  check_string "nan is null" "null" (Obs.Sink.to_string (Obs.Sink.Float Float.nan));
  check_string "inf is null" "null"
    (Obs.Sink.to_string (Obs.Sink.Float Float.infinity));
  check_string "document" "{\"a\":[1,true,null],\"b\":\"x\"}"
    (Obs.Sink.to_string
       (Obs.Sink.Obj
          [
            ("a", Obs.Sink.List [ Obs.Sink.Int 1; Obs.Sink.Bool true; Obs.Sink.Null ]);
            ("b", Obs.Sink.String "x");
          ]))

let test_encoder_roundtrip_nasty () =
  List.iter
    (fun s ->
      let parsed = read_json (Obs.Sink.json_string s) in
      check_string ("round-trip: " ^ String.escaped s) s (jstr parsed))
    [
      "";
      "plain";
      "tab\there";
      "new\nline";
      "quote\"back\\slash";
      "nul\000byte";
      "\001\002\031";
      "\xce\xbb \xe2\x86\x92 \xf0\x9f\x90\xab";
      String.init 64 Char.chr;
    ]

let prop_encoder_roundtrip =
  QCheck.Test.make ~name:"encoder round-trips arbitrary strings" ~count:500
    QCheck.(string_of_size (QCheck.Gen.int_range 0 80))
    (fun s ->
      (* the in-test reader treats raw bytes as opaque, so any byte string
         must survive encode -> parse exactly *)
      jstr (read_json (Obs.Sink.json_string s)) = s)

let prop_parser_agrees =
  QCheck.Test.make ~name:"Sink.parse agrees with the independent reader"
    ~count:300
    QCheck.(string_of_size (QCheck.Gen.int_range 0 60))
    (fun s ->
      let doc =
        Obs.Sink.to_string
          (Obs.Sink.Obj [ ("s", Obs.Sink.String s); ("n", Obs.Sink.Int 7) ])
      in
      match Obs.Sink.parse doc with
      | Error _ -> false
      | Ok j -> (
          match Obs.Sink.(member "s" j) with
          | Some v -> Obs.Sink.string_value v = Some s && jstr (jfield "s" (read_json doc)) = s
          | None -> false))

(* ---------- spans ---------- *)

let test_span_nesting () =
  with_spans @@ fun () ->
  Obs.Span.with_ "outer" (fun () ->
      Obs.Span.with_ "mid" (fun () -> Obs.Span.with_ "inner" (fun () -> ()));
      Obs.Span.with_ "mid" (fun () -> ()));
  let stats = Obs.Span.stats () in
  let paths = List.map (fun (s : Obs.Span.stat) -> s.Obs.Span.path) stats in
  Alcotest.(check (list string))
    "tree order: parents immediately before children"
    [ "outer"; "outer/mid"; "outer/mid/inner" ]
    paths;
  let find p =
    List.find (fun (s : Obs.Span.stat) -> s.Obs.Span.path = p) stats
  in
  check_int "outer called once" 1 (find "outer").Obs.Span.calls;
  check_int "mid called twice" 2 (find "outer/mid").Obs.Span.calls;
  check_int "depth of inner" 2 (find "outer/mid/inner").Obs.Span.depth;
  check "outer total >= mid total" true
    ((find "outer").Obs.Span.total_ns >= (find "outer/mid").Obs.Span.total_ns);
  check "self = total - children" true
    (let o = find "outer" in
     let m = find "outer/mid" in
     Int64.add o.Obs.Span.self_ns m.Obs.Span.total_ns = o.Obs.Span.total_ns)

let test_span_survives_exception () =
  with_spans @@ fun () ->
  (try
     Obs.Span.with_ "boom" (fun () -> failwith "expected")
   with Failure _ -> ());
  Obs.Span.with_ "after" (fun () -> ());
  let paths =
    List.map (fun (s : Obs.Span.stat) -> s.Obs.Span.path) (Obs.Span.stats ())
  in
  Alcotest.(check (list string))
    "exception closes its frame" [ "after"; "boom" ] (List.sort compare paths)

let test_span_events_roundtrip () =
  let (), lines =
    with_capture (fun () ->
        with_spans (fun () ->
            Obs.Span.with_ "a" (fun () ->
                Obs.Span.with_
                  ~attrs:[ ("k", Obs.Sink.String "v\nw") ]
                  "b"
                  (fun () -> ()))))
  in
  check_int "two span events" 2 (List.length lines);
  let parsed = List.map read_json lines in
  (* events close inner-first *)
  let b = List.nth parsed 0 and a = List.nth parsed 1 in
  check_string "type" "span" (jstr (jfield "type" b));
  check_string "inner path" "a/b" (jstr (jfield "path" b));
  check_string "outer path" "a" (jstr (jfield "path" a));
  check_string "attr with newline round-trips" "v\nw"
    (jstr (jfield "k" (jfield "attrs" b)));
  check "durations nonnegative" true
    (List.for_all (fun j -> jnum (jfield "dur_ms" j) >= 0.0) parsed)

(* ---------- metrics ---------- *)

let test_counter_semantics () =
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter "test.counter" in
  check_int "fresh counter" 0 (Obs.Metrics.count c);
  Obs.Metrics.incr c;
  Obs.Metrics.add c 41;
  check_int "incr + add" 42 (Obs.Metrics.count c);
  let c' = Obs.Metrics.counter "test.counter" in
  Obs.Metrics.incr c';
  check_int "interned: same instrument" 43 (Obs.Metrics.count c);
  Obs.Metrics.reset ();
  check_int "reset zeroes in place" 0 (Obs.Metrics.count c)

let test_histogram_semantics () =
  Obs.Metrics.reset ();
  let h = Obs.Metrics.histogram ~bounds:[| 1.0; 10.0; 100.0 |] "test.histo" in
  List.iter (Obs.Metrics.observe h) [ 0.5; 1.0; 5.0; 99.0; 1000.0 ];
  check_int "observations" 5 (Obs.Metrics.observations h);
  Alcotest.(check (array int))
    "bucket counts (upper bounds, overflow last)"
    [| 2; 1; 1; 1 |]
    (Obs.Metrics.bucket_counts h);
  let g = Obs.Metrics.gauge "test.gauge" in
  check "gauge unset until touched" true (Obs.Metrics.gauge_value g = None);
  Obs.Metrics.set g 2.5;
  check "gauge set" true (Obs.Metrics.gauge_value g = Some 2.5)

let test_metrics_event_roundtrip () =
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter "rt.counter" in
  Obs.Metrics.add c 7;
  let (), lines =
    with_capture (fun () ->
        Obs.Metrics.emit ~extra:[ ("experiment", Obs.Sink.String "T") ] ())
  in
  check_int "one event" 1 (List.length lines);
  let j = read_json (List.hd lines) in
  check_string "type" "metrics" (jstr (jfield "type" j));
  check_string "extra field" "T" (jstr (jfield "experiment" j));
  check "counter present" true
    (jnum (jfield "rt.counter" (jfield "counters" j)) = 7.0);
  check "matches to_json lowering" true
    (jfield "counters" (jv_of_sink (Obs.Metrics.to_json ()))
    = jfield "counters" j)

let test_top_counters () =
  Obs.Metrics.reset ();
  Obs.Metrics.add (Obs.Metrics.counter "top.a") 3;
  Obs.Metrics.add (Obs.Metrics.counter "top.b") 9;
  let top = Obs.Metrics.top_counters () in
  check "descending and nonzero only" true
    (match top with
    | ("top.b", 9) :: ("top.a", 3) :: rest ->
        List.for_all (fun (_, v) -> v > 0) rest
    | _ -> false)

(* ---------- trace summaries through the sink ---------- *)

let test_trace_emit_roundtrip () =
  let g = Generators.cycle 4 in
  let tr = Congest.Trace.create g in
  Congest.Trace.on_send tr ~dir_edge:0 ~words:2;
  Congest.Trace.on_send tr ~dir_edge:0 ~words:1;
  Congest.Trace.on_round_end tr;
  let (), lines =
    with_capture (fun () -> Congest.Trace.emit ~label:"t" ~full:true tr)
  in
  let j = read_json (List.hd lines) in
  check_string "type" "trace_summary" (jstr (jfield "type" j));
  check "fields" true
    (jnum (jfield "messages" j) = 2.0
    && jnum (jfield "max_edge_load" j) = 2.0
    && jfield "per_round" j
       = JObj
           [
             ("messages", JArr [ JNum 2.0 ]);
             ("words", JArr [ JNum 3.0 ]);
             ("max_edge_load", JArr [ JNum 2.0 ]);
           ])

(* ---------- GC probes ---------- *)

let with_gcstat f =
  Obs.Gcstat.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Gcstat.set_enabled false) f

let test_gcstat_delta () =
  let before = Obs.Gcstat.take () in
  ignore (Sys.opaque_identity (List.init 10_000 string_of_int));
  let after = Obs.Gcstat.take () in
  let d = Obs.Gcstat.delta ~before ~after in
  check "allocation observed" true (d.Obs.Gcstat.minor_words > 1_000.0);
  check "heap_words is absolute, not a delta" true
    (d.Obs.Gcstat.heap_words = after.Obs.Gcstat.heap_words);
  check "fields carry minor_words" true
    (List.mem_assoc "minor_words" (Obs.Gcstat.fields d));
  check "compactions omitted when zero" true
    (not (List.mem_assoc "compactions" (Obs.Gcstat.fields Obs.Gcstat.zero)))

let test_span_gc_attrs () =
  let (), lines =
    with_capture (fun () ->
        with_spans (fun () ->
            with_gcstat (fun () ->
                Obs.Span.with_ "alloc" (fun () ->
                    ignore
                      (Sys.opaque_identity (List.init 5_000 (fun i -> (i, i))))))))
  in
  let j = read_json (List.hd lines) in
  let gc = jfield "gc" j in
  check "span event carries its allocation" true
    (jnum (jfield "minor_words" gc) > 1_000.0);
  check "self allocation accounted" true
    (jnum (jfield "self_minor_words" gc) >= 0.0);
  check "recording domain stamped" true (jnum (jfield "domain" j) >= 0.0);
  (* probe off -> no gc object on span events *)
  let (), lines_off =
    with_capture (fun () ->
        with_spans (fun () -> Obs.Span.with_ "quiet" (fun () -> ())))
  in
  check "no gc field when the probe is off" true
    (match read_json (List.hd lines_off) with
    | JObj fields -> not (List.mem_assoc "gc" fields)
    | _ -> false)

(* ---------- rusage probes ---------- *)

let test_rusage_parsing () =
  check "VmRSS line" true
    (Obs.Rusage.parse_vmrss "VmRSS:\t  123456 kB" = Some 123456);
  check "VmHWM line" true
    (Obs.Rusage.parse_vmhwm "VmHWM:\t       9 kB" = Some 9);
  check "key mismatch" true (Obs.Rusage.parse_vmrss "VmHWM:\t 5 kB" = None);
  check "generic key" true
    (Obs.Rusage.parse_status_kb ~key:"VmData" "VmData: 42 kB" = Some 42);
  check "no number" true
    (Obs.Rusage.parse_status_kb ~key:"VmData" "VmData: kB" = None);
  check "prefix must match exactly" true
    (Obs.Rusage.parse_vmrss "XVmRSS:\t 1 kB" = None)

let test_rusage_probes () =
  (* the C stub must work wherever the tests run: it is the procfs-free
     fallback path *)
  check "getrusage ru_maxrss positive" true
    (Obs.Rusage.getrusage_maxrss_kb () > 0);
  check "max_rss_kb probes something" true
    (match Obs.Rusage.max_rss_kb () with Some k -> k > 0 | None -> false)

(* ---------- trace export ---------- *)

let parse_sink lines =
  List.filter_map
    (fun l -> match Obs.Sink.parse l with Ok j -> Some j | Error _ -> None)
    lines

let trace_events doc =
  match jfield "traceEvents" (jv_of_sink doc) with
  | JArr l -> l
  | _ -> raise (Bad "traceEvents")

(* validate the trace-event invariants Perfetto rejects violations of:
   integer pid/tid, per-tid monotone timestamps, balanced B/E nesting *)
let check_duration_events evs =
  let stacks = Hashtbl.create 4 in
  let cursor = Hashtbl.create 4 in
  List.iter
    (fun e ->
      let ph = jstr (jfield "ph" e) in
      let tid = jnum (jfield "tid" e) in
      let ts = jnum (jfield "ts" e) in
      check "pid 0" true (jnum (jfield "pid" e) = 0.0);
      check "tid integral" true (Float.is_integer tid);
      let last =
        match Hashtbl.find_opt cursor tid with Some t -> t | None -> neg_infinity
      in
      check "ts monotone per tid" true (ts >= last);
      Hashtbl.replace cursor tid ts;
      let stack =
        match Hashtbl.find_opt stacks tid with Some s -> s | None -> []
      in
      match ph with
      | "B" -> Hashtbl.replace stacks tid (jstr (jfield "name" e) :: stack)
      | "E" -> (
          match stack with
          | _ :: rest -> Hashtbl.replace stacks tid rest
          | [] -> Alcotest.fail "E event without an open B")
      | other -> Alcotest.failf "unexpected ph %S" other)
    evs;
  Hashtbl.iter
    (fun _ st -> check "every B closed" true (st = []))
    stacks

let test_chrome_export () =
  let (), lines =
    with_capture (fun () ->
        with_spans (fun () ->
            Obs.Span.with_ "root" (fun () ->
                Obs.Span.with_ "child" (fun () ->
                    Obs.Span.with_ "grand" (fun () -> ()));
                Obs.Span.with_ "child" (fun () -> ()))))
  in
  let doc = Obs.Export.chrome (parse_sink lines) in
  check_string "display unit" "ms"
    (jstr (jfield "displayTimeUnit" (jv_of_sink doc)));
  let evs = trace_events doc in
  check_int "4 spans -> 4 B/E pairs" 8 (List.length evs);
  check_duration_events evs;
  (* close-order stream rebuilt into start-order DFS *)
  let b_names =
    List.filter_map
      (fun e ->
        if jstr (jfield "ph" e) = "B" then Some (jstr (jfield "name" e))
        else None)
      evs
  in
  Alcotest.(check (list string))
    "DFS emission order" [ "root"; "child"; "grand"; "child" ] b_names;
  let grand_b =
    List.find (fun e -> jstr (jfield "ph" e) = "B"
                        && jstr (jfield "name" e) = "grand") evs
  in
  check_string "full path under args" "root/child/grand"
    (jstr (jfield "path" (jfield "args" grand_b)))

let test_chrome_counters () =
  let g = Generators.cycle 4 in
  let tr = Congest.Trace.create g in
  Congest.Trace.on_send tr ~dir_edge:0 ~words:2;
  Congest.Trace.on_round_end tr;
  Congest.Trace.on_send tr ~dir_edge:1 ~words:1;
  Congest.Trace.on_send tr ~dir_edge:2 ~words:1;
  Congest.Trace.on_round_end tr;
  let (), lines =
    with_capture (fun () -> Congest.Trace.emit ~label:"t" ~full:true tr)
  in
  let evs = trace_events (Obs.Export.chrome (parse_sink lines)) in
  check "only counter events from a trace summary" true
    (evs <> [] && List.for_all (fun e -> jstr (jfield "ph" e) = "C") evs);
  let series name =
    List.filter_map
      (fun e ->
        if jstr (jfield "name" e) = Printf.sprintf "congest.%s (t)" name then
          Some (jnum (jfield name (jfield "args" e)))
        else None)
      evs
  in
  Alcotest.(check (list (float 0.0)))
    "messages per round" [ 1.0; 2.0 ] (series "messages");
  Alcotest.(check (list (float 0.0)))
    "words per round" [ 2.0; 2.0 ] (series "words");
  check "counter ts increase within a series" true
    (let ts =
       List.filter_map
         (fun e ->
           if jstr (jfield "name" e) = "congest.messages (t)" then
             Some (jnum (jfield "ts" e))
           else None)
         evs
     in
     ts = List.sort compare ts && List.length (List.sort_uniq compare ts) = 2)

let test_folded_output () =
  let (), lines =
    with_capture (fun () ->
        with_spans (fun () ->
            Obs.Span.with_ "root" (fun () ->
                Obs.Span.with_ "child" (fun () -> ()));
            Obs.Span.with_ "root" (fun () -> ())))
  in
  let folded = Obs.Export.folded (parse_sink lines) in
  let folded_lines = String.split_on_char '\n' (String.trim folded) in
  check_int "one line per distinct path" 2 (List.length folded_lines);
  List.iter
    (fun l ->
      match String.rindex_opt l ' ' with
      | Some i ->
          let stack = String.sub l 0 i in
          let v = String.sub l (i + 1) (String.length l - i - 1) in
          check "semicolon stacks" true
            (stack = "root" || stack = "root;child");
          check "integer self-microseconds" true
            (match int_of_string_opt v with Some v -> v >= 0 | None -> false)
      | None -> Alcotest.failf "malformed folded line %S" l)
    folded_lines

let test_read_jsonl_skips_junk () =
  let path = Filename.temp_file "obs_export" ".jsonl" in
  let oc = open_out path in
  output_string oc "{\"type\":\"span\",\"name\":\"a\",\"path\":\"a\"}\n";
  output_string oc "\n";
  output_string oc "not json at all\n";
  output_string oc "{\"type\":\"metrics\"}\n";
  close_out oc;
  let events = Obs.Export.read_jsonl path in
  Sys.remove path;
  check_int "blank and unparsable lines skipped" 2 (List.length events)

(* ---------- disabled observability is inert ---------- *)

(* the memo cache must stay out of the way here: a cache hit legitimately
   skips the producer's spans, so a warmed-up second run would emit nothing
   and the "instrumented run emits events" clause would fail for the wrong
   reason *)
let quality_triple g =
  let was = Memo.enabled () in
  Memo.set_enabled false;
  Fun.protect ~finally:(fun () -> Memo.set_enabled was) @@ fun () ->
  let tree = Spanning.bfs_tree g 0 in
  let parts = Shortcuts.Part.voronoi ~seed:3 g ~count:4 in
  let sc = Shortcuts.Generic.construct tree parts in
  ( Shortcuts.Shortcut.block_parameter sc,
    Shortcuts.Shortcut.congestion sc,
    Shortcuts.Shortcut.quality sc )

let prop_disabled_sink_inert =
  QCheck.Test.make ~name:"observability off: no events, identical results"
    ~count:15
    QCheck.(int_range 10 60)
    (fun n ->
      let g = Generators.erdos_renyi ~seed:(n * 13) n 0.25 in
      (* baseline: spans off, no sink (the library default) *)
      Obs.Span.set_enabled false;
      check "no sink installed" true (not (Obs.Sink.enabled ()));
      let plain = quality_triple g in
      (* instrumented run of the same computation *)
      let traced, lines =
        with_capture (fun () -> with_spans (fun () -> quality_triple g))
      in
      (* and once more with everything off: nothing may leak *)
      let again, lines_off = with_capture (fun () -> quality_triple g) in
      plain = traced && plain = again
      && List.length lines > 0
      && (* with spans disabled the sink only sees what emit is told to send:
            the construction itself emits nothing *)
      lines_off = [])

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "obs"
    [
      ( "encoder",
        [
          Alcotest.test_case "escaping" `Quick test_encoder_escaping;
          Alcotest.test_case "nasty strings" `Quick test_encoder_roundtrip_nasty;
        ]
        @ qsuite [ prop_encoder_roundtrip; prop_parser_agrees ] );
      ( "span",
        [
          Alcotest.test_case "nesting + aggregation" `Quick test_span_nesting;
          Alcotest.test_case "exception safety" `Quick test_span_survives_exception;
          Alcotest.test_case "events round-trip" `Quick test_span_events_roundtrip;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter semantics" `Quick test_counter_semantics;
          Alcotest.test_case "histogram + gauge" `Quick test_histogram_semantics;
          Alcotest.test_case "event round-trip" `Quick test_metrics_event_roundtrip;
          Alcotest.test_case "top counters" `Quick test_top_counters;
        ] );
      ( "trace",
        [ Alcotest.test_case "emit round-trip" `Quick test_trace_emit_roundtrip ] );
      ( "gcstat",
        [
          Alcotest.test_case "delta semantics" `Quick test_gcstat_delta;
          Alcotest.test_case "span gc attrs" `Quick test_span_gc_attrs;
        ] );
      ( "rusage",
        [
          Alcotest.test_case "status parsing" `Quick test_rusage_parsing;
          Alcotest.test_case "live probes" `Quick test_rusage_probes;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome spans" `Quick test_chrome_export;
          Alcotest.test_case "chrome counters" `Quick test_chrome_counters;
          Alcotest.test_case "folded stacks" `Quick test_folded_output;
          Alcotest.test_case "read_jsonl" `Quick test_read_jsonl_skips_junk;
        ] );
      ("inert", qsuite [ prop_disabled_sink_inert ]);
    ]
