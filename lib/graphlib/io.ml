let to_string ?weights g =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "%d %d\n" (Graph.n g) (Graph.m g));
  Graph.iter_edges g (fun e u v ->
      match weights with
      | Some w -> Buffer.add_string buf (Printf.sprintf "%d %d %.12g\n" u v w.(e))
      | None -> Buffer.add_string buf (Printf.sprintf "%d %d\n" u v));
  Buffer.contents buf

(* the located token parser both text formats share: every error names
   the reader and the 1-based line, so a malformed file points at its bad
   line instead of failing deep in int_of_string or the builder *)
let located reader lineno msg =
  invalid_arg (Printf.sprintf "Io.%s: line %d: %s" reader lineno msg)

(* the whitespace tokenizer both text formats share: fields are separated
   by any run of spaces and tabs *)
let fields line =
  String.split_on_char '\t' line
  |> List.concat_map (String.split_on_char ' ')
  |> List.filter (fun tok -> tok <> "")

let parse_vertex reader lineno tok =
  match int_of_string_opt tok with
  | Some v when v >= 0 -> v
  | Some _ -> located reader lineno (Printf.sprintf "negative vertex id %S" tok)
  | None -> located reader lineno (Printf.sprintf "not a vertex id: %S" tok)

let of_string s =
  let err = located "of_string" in
  let all = String.split_on_char '\n' s in
  let lines =
    List.mapi (fun i l -> (i + 1, String.trim l)) all
    |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')
  in
  match lines with
  | [] -> err (List.length all) "empty input (expected an \"n m\" header)"
  | (hl, header) :: rest ->
      let count tok =
        match int_of_string_opt tok with
        | Some c when c >= 0 -> c
        | _ -> err hl (Printf.sprintf "not a count: %S" tok)
      in
      let n, m =
        match fields header with
        | [ a; b ] -> (count a, count b)
        | _ -> err hl "bad header (expected \"n m\")"
      in
      let vertex ln tok =
        let v = parse_vertex "of_string" ln tok in
        if v >= n then err ln (Printf.sprintf "vertex %d out of range (n = %d)" v n);
        v
      in
      let edges = ref [] in
      let weights = ref [] in
      let weighted = ref None in
      List.iter
        (fun (ln, line) ->
          let u, v, w =
            match fields line with
            | [ u; v ] -> (u, v, None)
            | [ u; v; w ] -> (u, v, Some w)
            | _ -> err ln "bad edge line (expected \"u v\" or \"u v w\")"
          in
          (match (!weighted, w) with
          | Some true, None | Some false, Some _ -> err ln "mixed weighted/unweighted"
          | _ -> weighted := Some (Option.is_some w));
          edges := (ln, vertex ln u, vertex ln v) :: !edges;
          match w with
          | None -> ()
          | Some w -> (
              match float_of_string_opt w with
              | Some x when Float.is_finite x -> weights := x :: !weights
              | Some _ -> err ln (Printf.sprintf "not a finite weight: %S" w)
              | None -> err ln (Printf.sprintf "not a weight: %S" w)))
        rest;
      let edges = List.rev !edges in
      let got = List.length edges in
      if got <> m then
        err hl (Printf.sprintf "header says m = %d but %d edge lines follow" m got);
      let g = Graph.of_edges n (List.map (fun (_, u, v) -> (u, v)) edges) in
      let w =
        match !weighted with
        | Some true ->
            (* graph construction drops self-loops and merges duplicates, so
               weights line up with edge ids only when there are none *)
            if Graph.m g <> m then begin
              let seen = Hashtbl.create m in
              List.iter
                (fun (ln, u, v) ->
                  let key = (Int.min u v * n) + Int.max u v in
                  if u = v || Hashtbl.mem seen key then
                    err ln "self-loop or duplicate edge in weighted input";
                  Hashtbl.replace seen key ())
                edges
            end;
            Some (Array.of_list (List.rev !weights))
        | _ -> None
      in
      (g, w)

let write_file path ?weights g =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string ?weights g))

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      of_string s)

(* -- raw edge-list ingestion (SNAP / DIMACS-download style): no header,
   one whitespace-separated "u v" pair per line.  Tolerant of what the
   usual gunzip-piped datasets contain — '#' and '%' comment lines, blank
   lines, tab separation, an optional third column (a weight or timestamp,
   ignored) — and strict about everything else, failing with the 1-based
   line number so a malformed multi-gigabyte download points at the bad
   line instead of dying deep in the builder. -- *)

let of_edge_list ?n s =
  let us = ref [] and vs = ref [] and count = ref 0 and max_id = ref (-1) in
  let lineno = ref 0 in
  let handle_line line =
    incr lineno;
    let line =
      match String.index_opt line '\r' with
      | Some i -> String.sub line 0 i
      | None -> line
    in
    let is_comment =
      String.length line > 0 && (line.[0] = '#' || line.[0] = '%')
    in
    if not is_comment then begin
      let fields = fields line in
      let parse_vertex = parse_vertex "of_edge_list" !lineno in
      match fields with
      | [] -> ()
      | [ u; v ] | [ u; v; _ ] ->
          let u = parse_vertex u and v = parse_vertex v in
          us := u :: !us;
          vs := v :: !vs;
          incr count;
          if u > !max_id then max_id := u;
          if v > !max_id then max_id := v
      | _ ->
          located "of_edge_list" !lineno
            (Printf.sprintf "expected \"u v\" (got %d fields)" (List.length fields))
    end
  in
  String.split_on_char '\n' s |> List.iter handle_line;
  let inferred = !max_id + 1 in
  let n =
    match n with
    | None -> inferred
    | Some n when n >= inferred -> n
    | Some n ->
        invalid_arg
          (Printf.sprintf "Io.of_edge_list: n = %d but input mentions vertex %d" n !max_id)
  in
  let b = Graph.Builder.create ~edges_hint:!count n in
  (* the accumulators are reversed; walk them together from the back *)
  let us = Array.of_list !us and vs = Array.of_list !vs in
  for i = !count - 1 downto 0 do
    Graph.Builder.add_edge b us.(i) vs.(i)
  done;
  Graph.Builder.build b

let read_edge_list ?n path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      of_edge_list ?n s)
