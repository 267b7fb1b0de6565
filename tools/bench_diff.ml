(* Regression gate over the bench ledger (BENCH_LEDGER.jsonl).

     bench_diff LEDGER                  latest entry vs the last blessed one
     bench_diff --baseline REV LEDGER   latest entry vs the entry with rev REV
     bench_diff --bless LEDGER          mark the latest entry blessed
     bench_diff --trim LEDGER           keep the last blessed entry and the
                                        last two entries

   Both compared entries are validated first, then every metric of the
   table in Obs.Ledger is gated (DESIGN.md section 13).  Exit 0 when all
   metrics are within bounds, 1 with one named line per regression or
   baseline row the latest entry lost, 2 on unusable input. *)

module L = Obs.Ledger
module J = Obs.Sink

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("bench_diff: " ^ m);
      exit 2)
    fmt

let read file =
  match L.read file with
  | Error e -> die "%s" e
  | Ok lines ->
      List.map
        (fun (l : L.line) ->
          match l.json with
          | Ok j -> (l, j)
          | Error e -> die "%s:%d: parse error: %s" file l.lineno e)
        lines

let str k j = Option.bind (J.member k j) J.string_value
let blessed j = J.member "blessed" j = Some (J.Bool true)

let describe j =
  Printf.sprintf "rev %s (%s)"
    (Option.value ~default:"?" (str "rev" j))
    (Option.value ~default:"?" (str "date" j))

let bless file =
  match List.rev (read file) with
  | [] -> die "%s: empty ledger, nothing to bless" file
  | (_, last) :: earlier ->
      let last =
        match last with
        | J.Obj kvs when List.mem_assoc "blessed" kvs ->
            J.Obj
              (List.map
                 (fun (k, v) -> (k, if k = "blessed" then J.Bool true else v))
                 kvs)
        | J.Obj kvs -> J.Obj (kvs @ [ ("blessed", J.Bool true) ])
        | j -> j
      in
      L.rewrite file
        (List.rev_map (fun ((l : L.line), _) -> l.text) earlier
        @ [ J.to_string last ]);
      Printf.printf "bench_diff: blessed entry %s in %s\n" (describe last) file

(* keep the most recent blessed entry plus the last two entries, in their
   original order; everything else is history the gate never reads *)
let trim file =
  let entries = read file in
  let n = List.length entries in
  let last_blessed =
    List.fold_left
      (fun (i, found) (_, j) -> (i + 1, if blessed j then Some i else found))
      (0, None) entries
    |> snd
  in
  let kept =
    List.filteri (fun i _ -> i >= n - 2 || last_blessed = Some i) entries
  in
  if List.length kept = n then
    Printf.printf "bench_diff: %s: %d entries, nothing to trim\n" file n
  else begin
    L.rewrite file (List.map (fun ((l : L.line), _) -> l.text) kept);
    Printf.printf "bench_diff: trimmed %s: %d -> %d entries\n" file n
      (List.length kept)
  end

let compare file baseline_rev =
  match List.rev (read file) with
  | [] -> die "%s: empty ledger" file
  | current :: earlier -> (
      let is_baseline (_, j) =
        match baseline_rev with
        | Some rev -> str "rev" j = Some rev
        | None -> blessed j
      in
      match (List.find_opt is_baseline earlier, baseline_rev) with
      | None, Some rev -> die "%s: no earlier entry with rev %s" file rev
      | None, None ->
          (* a fresh ledger has nothing blessed yet: record a baseline and
             bless it rather than failing every tree *)
          Printf.printf
            "bench_diff: %s: no blessed baseline among earlier entries; \
             nothing to compare\n"
            file
      | Some baseline, _ ->
          let problems =
            List.concat_map
              (fun ((l : L.line), j) ->
                List.map
                  (Printf.sprintf "%s:%d: %s" file l.lineno)
                  (L.validate j))
              [ baseline; current ]
          in
          List.iter prerr_endline problems;
          if problems <> [] then
            die "%d problem(s) in the compared entries" (List.length problems);
          let baseline = snd baseline and current = snd current in
          if L.mode baseline <> L.mode current then
            die "incomparable entries: baseline ran %s, current ran %s"
              (L.mode baseline) (L.mode current);
          let v = L.gate ~baseline ~current in
          if v.speed <> 1.0 then
            Printf.printf
              "bench_diff: machine speed factor %.3f (current calibration / \
               baseline); time metrics normalized\n"
              v.speed;
          List.iter print_endline v.regressions;
          List.iter
            (Printf.printf "MISSING %s: in the baseline, not the current entry\n")
            v.missing;
          if v.regressions = [] && v.missing = [] then
            Printf.printf
              "bench_diff: OK — %s vs baseline %s: %d metrics within thresholds\n"
              (describe current) (describe baseline) v.checked
          else begin
            Printf.printf
              "bench_diff: FAIL — %s vs baseline %s: %d of %d metrics \
               regressed%s (bless intentional changes with `make \
               bench-bless`)\n"
              (describe current) (describe baseline)
              (List.length v.regressions)
              v.checked
              (match v.missing with
              | [] -> ""
              | l -> Printf.sprintf ", %d baseline rows missing" (List.length l));
            exit 1
          end)

let () =
  let rec parse action rev file = function
    | "--bless" :: rest -> parse `Bless rev file rest
    | "--trim" :: rest -> parse `Trim rev file rest
    | "--baseline" :: r :: rest -> parse action (Some r) file rest
    | f :: _ when String.length f > 1 && f.[0] = '-' -> die "unknown option %s" f
    | f :: rest -> parse action rev (Some f) rest
    | [] -> (action, rev, file)
  in
  match parse `Compare None None (List.tl (Array.to_list Sys.argv)) with
  | _, _, None -> die "usage: bench_diff [--bless | --trim | --baseline REV] LEDGER"
  | `Bless, _, Some file -> bless file
  | `Trim, _, Some file -> trim file
  | `Compare, rev, Some file -> compare file rev
