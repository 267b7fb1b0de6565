(* Validate a JSONL event stream (bench --jsonl, shortcuts-cli --trace) or,
   with --ledger, a bench ledger.

     jsonl_check [--require T1,T2] [--min-spans N] [--max-p99 MS] FILE
     jsonl_check --ledger FILE

   A stream passes when every line is an object with a "type", spans are
   named, serve_query events are well-formed, serve_summary and
   asynch_summary events follow the ledger's row rules (Obs.Ledger), every
   --require type occurs (default span,metrics,quality,trace_summary),
   spans have at least --min-spans distinct names (default 4) and no
   serve_summary p99 exceeds --max-p99.  A ledger passes when every entry
   follows Obs.Ledger's table and dates never go backwards.  Exit 0 when
   all checks hold, 1 on problems, 2 on a bad command line or file. *)

module J = Obs.Sink

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("jsonl_check: " ^ m);
      exit 2)
    fmt

let str k j = Option.bind (J.member k j) J.string_value
let num k j = Option.bind (J.member k j) J.float_value

(* problems are (line, message); line 0 is about the whole file *)
let finish file ok problems =
  List.iter
    (fun (n, m) ->
      if n > 0 then Printf.eprintf "%s:%d: %s\n" file n m
      else Printf.eprintf "%s: %s\n" file m)
    problems;
  if problems = [] then print_endline ok
  else begin
    Printf.eprintf "%s: %d problem(s)\n" file (List.length problems);
    exit 1
  end

let check_ledger file lines =
  finish file
    (Printf.sprintf "%s: OK — %d ledger entries, schema %s, dates monotone"
       file (List.length lines) Obs.Ledger.schema)
    (if lines = [] then [ (0, "empty ledger") ]
     else Obs.Ledger.check_file lines)

let serve_query j =
  (match J.member "seq" j with
  | Some (J.Int s) when s >= 0 -> []
  | _ -> [ "no non-negative int \"seq\"" ])
  @ (match num "latency_ms" j with
    | Some l when l >= 0.0 -> []
    | _ -> [ "no non-negative \"latency_ms\"" ])
  @ List.filter_map
      (fun k -> if str k j = None then Some ("no string " ^ k) else None)
      [ "graph"; "kind" ]

let check_events file lines ~required ~min_spans ~max_p99 =
  let types = Hashtbl.create 8 and spans = Hashtbl.create 16 in
  let event (l : Obs.Ledger.line) =
    match l.json with
    | Error e -> [ "parse error: " ^ e ]
    | Ok j -> (
        match str "type" j with
        | None -> [ "event without a \"type\" field" ]
        | Some t ->
            Hashtbl.replace types t ();
            let own =
              match t with
              | "span" -> (
                  match str "name" j with
                  | Some s ->
                      Hashtbl.replace spans s ();
                      []
                  | None -> [ "no \"name\" field" ])
              | "serve_query" -> serve_query j
              | "serve_summary" -> (
                  match num "p99_ms" j with
                  | Some p when p > max_p99 ->
                      [
                        Printf.sprintf "p99_ms %g exceeds --max-p99 %g" p
                          max_p99;
                      ]
                  | _ -> [])
              | _ -> []
            in
            List.map
              (fun m -> t ^ ": " ^ m)
              (Obs.Ledger.check_event ~type_:t j @ own))
  in
  let per_line =
    List.concat_map
      (fun (l : Obs.Ledger.line) ->
        List.map (fun m -> (l.lineno, m)) (event l))
      lines
  in
  let absent =
    List.filter_map
      (fun t ->
        if Hashtbl.mem types t then None
        else Some (0, Printf.sprintf "no %S events" t))
      required
  in
  let names = Hashtbl.fold (fun k () acc -> k :: acc) spans [] in
  let few_spans =
    if List.length names >= min_spans then []
    else
      [
        ( 0,
          Printf.sprintf "only %d distinct span names (need >= %d): %s"
            (List.length names) min_spans
            (String.concat ", " (List.sort String.compare names)) );
      ]
  in
  finish file
    (Printf.sprintf "%s: OK — %d lines, %d event types, %d distinct span phases"
       file (List.length lines) (Hashtbl.length types) (List.length names))
    (per_line @ absent @ few_spans)

let () =
  let ledger = ref false and file = ref None in
  let required = ref [ "span"; "metrics"; "quality"; "trace_summary" ] in
  let min_spans = ref 4 and max_p99 = ref infinity in
  let number parse flag v =
    match parse v with
    | Some x -> x
    | None -> die "%s expects a number, got %S" flag v
  in
  let rec parse = function
    | "--ledger" :: rest ->
        ledger := true;
        parse rest
    | "--require" :: v :: rest ->
        required := String.split_on_char ',' v;
        parse rest
    | "--min-spans" :: v :: rest ->
        min_spans := number int_of_string_opt "--min-spans" v;
        parse rest
    | "--max-p99" :: v :: rest ->
        max_p99 := number float_of_string_opt "--max-p99" v;
        parse rest
    | f :: _ when String.length f > 1 && f.[0] = '-' -> die "unknown option %s" f
    | f :: rest ->
        file := Some f;
        parse rest
    | [] -> ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match !file with
  | None ->
      die
        "usage: jsonl_check [--require T1,T2] [--min-spans N] [--max-p99 MS] \
         FILE | jsonl_check --ledger FILE"
  | Some file -> (
      match Obs.Ledger.read file with
      | Error e -> die "%s" e
      | Ok lines when !ledger -> check_ledger file lines
      | Ok lines ->
          check_events file lines ~required:!required ~min_spans:!min_spans
            ~max_p99:!max_p99)
