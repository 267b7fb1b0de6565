module Graph = Graphlib.Graph
module Subgraph = Graphlib.Subgraph

(* --- biconnected components (Tarjan, iterative) --- *)

let biconnected_components g =
  let n = Graph.n g in
  let disc = Array.make n (-1) in
  let low = Array.make n 0 in
  let timer = ref 0 in
  let estack = ref [] in
  let comps = ref [] in
  let adj_pos = Array.make n 0 in
  for s = 0 to n - 1 do
    if disc.(s) < 0 then begin
      let stack = ref [ (s, -1) ] in
      disc.(s) <- !timer;
      low.(s) <- !timer;
      incr timer;
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | (v, pe) :: rest ->
            if adj_pos.(v) < Graph.degree g v then begin
              let p = Graph.adj_offset g v + adj_pos.(v) in
              let w = Graph.adj_dst g p and e = Graph.adj_eid g p in
              adj_pos.(v) <- adj_pos.(v) + 1;
              if e <> pe then begin
                if disc.(w) < 0 then begin
                  estack := e :: !estack;
                  disc.(w) <- !timer;
                  low.(w) <- !timer;
                  incr timer;
                  stack := (w, e) :: !stack
                end
                else if disc.(w) < disc.(v) then begin
                  (* back edge to an ancestor *)
                  estack := e :: !estack;
                  low.(v) <- min low.(v) disc.(w)
                end
              end
            end
            else begin
              (* frame (v, pe) finished *)
              stack := rest;
              if pe >= 0 then begin
                let p = Graph.other_endpoint g pe v in
                low.(p) <- min low.(p) low.(v);
                if low.(v) >= disc.(p) then begin
                  (* pop edges until pe inclusive: one biconnected component *)
                  let comp = ref [] in
                  let stop = ref false in
                  while not !stop do
                    match !estack with
                    | [] -> stop := true
                    | e :: es ->
                        comp := e :: !comp;
                        estack := es;
                        if e = pe then stop := true
                  done;
                  comps := !comp :: !comps
                end
              end
            end
      done
    end
  done;
  !comps

(* --- Demoucron planarity on a biconnected simple graph --- *)

let find_cycle g =
  (* DFS until a back edge closes a cycle of length >= 3 *)
  let n = Graph.n g in
  let parent = Array.make n (-2) in
  let result = ref None in
  (try
     let rec dfs v p =
       parent.(v) <- p;
       Graph.iter_adj g v (fun w _ ->
           if w <> p then
             if parent.(w) = -2 then dfs w v
             else begin
               let rec path u acc =
                 if u = w then Some (w :: acc)
                 else if u < 0 then None
                 else path parent.(u) (u :: acc)
               in
               match path v [] with
               | Some cyc when List.length cyc >= 3 ->
                   result := Some cyc;
                   raise Exit
               | _ -> ()
             end)
     in
     dfs 0 (-1)
   with Exit -> ());
  !result

let planar_biconnected g =
  let n = Graph.n g and m = Graph.m g in
  if n <= 4 || m <= 5 then true
  else if m > (3 * n) - 6 then false
  else begin
    match find_cycle g with
    | None -> true (* forest *)
    | Some cyc ->
        let emb_v = Array.make n false in
        let emb_e = Array.make m false in
        List.iter (fun v -> emb_v.(v) <- true) cyc;
        let mark_path_edges path =
          let rec loop = function
            | a :: (b :: _ as rest) ->
                (match Graph.find_edge g a b with
                | Some e -> emb_e.(e) <- true
                | None -> invalid_arg "planarity: path edge missing");
                loop rest
            | _ -> ()
          in
          loop path
        in
        mark_path_edges (cyc @ [ List.hd cyc ]);
        let faces = ref [ Array.of_list cyc; Array.of_list cyc ] in
        let planar = ref true in
        let continue_ = ref true in
        while !continue_ && !planar do
          (* ---- fragments ---- *)
          let comp = Array.make n (-1) in
          let ncomp = ref 0 in
          for s = 0 to n - 1 do
            if (not emb_v.(s)) && comp.(s) < 0 then begin
              let q = Queue.create () in
              comp.(s) <- !ncomp;
              Queue.push s q;
              while not (Queue.is_empty q) do
                let v = Queue.pop q in
                Graph.iter_adj g v (fun w _ ->
                    if (not emb_v.(w)) && comp.(w) < 0 then begin
                      comp.(w) <- !ncomp;
                      Queue.push w q
                    end)
              done;
              incr ncomp
            end
          done;
          let frags = ref [] in
          for c = 0 to !ncomp - 1 do
            let att = Hashtbl.create 8 in
            let seed = ref (-1) in
            for v = 0 to n - 1 do
              if comp.(v) = c then begin
                if !seed < 0 then seed := v;
                Graph.iter_adj g v (fun w _ ->
                    if emb_v.(w) then Hashtbl.replace att w ())
              end
            done;
            let atts = Hashtbl.fold (fun v () acc -> v :: acc) att [] in
            frags := (List.sort Int.compare atts, Some !seed) :: !frags
          done;
          Graph.iter_edges g (fun e u v ->
              if (not emb_e.(e)) && emb_v.(u) && emb_v.(v) then
                frags := (List.sort Int.compare [ u; v ], None) :: !frags);
          if !frags = [] then continue_ := false
          else begin
            let face_has f v = Array.exists (fun x -> x = v) f in
            let admissible (atts, _) =
              List.filter (fun f -> List.for_all (fun a -> face_has f a) atts) !faces
            in
            (* Demoucron's rule: a fragment with the fewest admissible faces *)
            let best = ref None in
            List.iter
              (fun frag ->
                let adm = admissible frag in
                match !best with
                | Some (_, ba) when List.length ba <= List.length adm -> ()
                | _ -> best := Some (frag, adm))
              !frags;
            match !best with
            | None -> continue_ := false
            | Some (_, []) -> planar := false
            | Some ((atts, interior_seed), face :: _) ->
                let path =
                  match (atts, interior_seed) with
                  | a :: b :: _, None -> [ a; b ]
                  | a :: _ :: _, Some seed ->
                      let cseed = comp.(seed) in
                      let prev = Array.make n (-2) in
                      let q = Queue.create () in
                      prev.(a) <- -1;
                      Queue.push a q;
                      let target = ref (-1) in
                      while !target < 0 && not (Queue.is_empty q) do
                        let v = Queue.pop q in
                        Graph.iter_adj g v (fun w _ ->
                            if !target < 0 && prev.(w) = -2 then
                              if (not emb_v.(w)) && comp.(w) = cseed then begin
                                prev.(w) <- v;
                                Queue.push w q
                              end
                              else if emb_v.(w) && w <> a && v <> a && List.mem w atts
                              then begin
                                prev.(w) <- v;
                                target := w
                              end)
                      done;
                      if !target < 0 then []
                      else begin
                        let rec build v acc =
                          if v = -1 then acc else build prev.(v) (v :: acc)
                        in
                        build !target []
                      end
                  | _ -> []
                in
                if List.length path < 2 then planar := false
                else begin
                  let a = List.hd path and b = List.nth path (List.length path - 1) in
                  let t = Array.length face in
                  let pos v =
                    let p = ref (-1) in
                    Array.iteri (fun i x -> if x = v && !p < 0 then p := i) face;
                    !p
                  in
                  let ia = pos a and ib = pos b in
                  if ia < 0 || ib < 0 then planar := false
                  else begin
                    let walk i j =
                      let acc = ref [] in
                      let k = ref i in
                      let stop = ref false in
                      while not !stop do
                        acc := face.(!k) :: !acc;
                        if !k = j then stop := true else k := (!k + 1) mod t
                      done;
                      List.rev !acc
                    in
                    let inner =
                      List.filteri (fun i _ -> i > 0 && i < List.length path - 1) path
                    in
                    let f1 = walk ia ib @ List.rev inner in
                    let f2 = walk ib ia @ inner in
                    let rec remove_once = function
                      | [] -> []
                      | f :: rest -> if f == face then rest else f :: remove_once rest
                    in
                    faces := Array.of_list f1 :: Array.of_list f2 :: remove_once !faces;
                    List.iter (fun v -> emb_v.(v) <- true) path;
                    mark_path_edges path
                  end
                end
          end
        done;
        !planar
  end

let is_planar g =
  let n = Graph.n g and m = Graph.m g in
  Obs.Span.with_ ~attrs:[ ("n", Obs.Sink.Int n) ] "planarity.check" @@ fun () ->
  if n <= 4 then true
  else if m > (3 * n) - 6 then false
  else
    biconnected_components g
    |> List.for_all (fun comp_edges ->
           if List.length comp_edges <= 5 then true
           else begin
             let vs =
               List.concat_map
                 (fun e ->
                   let u, v = Graph.edge g e in
                   [ u; v ])
                 comp_edges
             in
             let { Subgraph.sub; to_sub; _ } = Subgraph.induced g vs in
             let edges =
               List.map
                 (fun e ->
                   let u, v = Graph.edge g e in
                   (to_sub.(u), to_sub.(v)))
                 comp_edges
             in
             let comp_graph = Graph.of_edges (Graph.n sub) edges in
             planar_biconnected comp_graph
           end)
