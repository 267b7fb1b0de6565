module Graph = Graphlib.Graph

type outcome = {
  leader : int;
  n_estimate : int;
  d_estimate : int;
  stats : Network.stats;
}

(* stage 1: min-id flooding *)
type elect_state = { best : int; announced : bool }

let elect_stage ?max_rounds ?trace ?faults g =
  let buf = [| 0 |] in
  let algo =
    {
      Network.init = (fun _ v -> { best = v; announced = false });
      step =
        (fun ctx st ->
          let st = ref st in
          for i = 0 to Network.inbox_size ctx - 1 do
            if Network.inbox_words ctx i = 1 then begin
              let cand = Network.inbox_word ctx i 0 in
              if cand < !st.best then st := { best = cand; announced = false }
            end
          done;
          let st = !st in
          if not st.announced then begin
            buf.(0) <- st.best;
            Network.send_all ctx buf;
            { st with announced = true }
          end
          else st);
      finished = (fun st -> st.announced);
    }
  in
  let states, stats = Network.run ?max_rounds ?trace ?faults g algo in
  (states.(0).best, stats)

(* stage 3: census convergecast over the leader's BFS tree.
   Round 1 announces parents (so everyone learns its children); a node
   reports (subtree size, subtree height) upward once all children have. *)
type census_state = {
  parent : int;
  expected : int option;  (* children count, once known *)
  received : int;
  acc_count : int;
  acc_height : int;
  reported : bool;
}

let census_stage ?max_rounds ?trace ?faults g parent_of depth_of root =
  let buf1 = [| 0 |] in
  let buf2 = [| 0; 0 |] in
  let algo =
    {
      Network.init =
        (fun _ v ->
          {
            parent = parent_of.(v);
            expected = None;
            received = 0;
            acc_count = 1;
            acc_height = depth_of.(v);
            reported = false;
          });
      step =
        (fun ctx st ->
          let v = Network.node ctx in
          if Network.round ctx = 1 then begin
            (* announce the parent to all neighbors *)
            buf1.(0) <- st.parent;
            Network.send_all ctx buf1;
            st
          end
          else begin
            let st =
              if Network.round ctx = 2 then begin
                (* count the children among the announcements *)
                let kids = ref 0 in
                for i = 0 to Network.inbox_size ctx - 1 do
                  if
                    Network.inbox_words ctx i = 1
                    && Network.inbox_word ctx i 0 = v
                  then incr kids
                done;
                { st with expected = Some !kids }
              end
              else begin
                let st = ref st in
                for i = 0 to Network.inbox_size ctx - 1 do
                  if Network.inbox_words ctx i = 2 then
                    st :=
                      {
                        !st with
                        received = !st.received + 1;
                        acc_count = !st.acc_count + Network.inbox_word ctx i 0;
                        acc_height =
                          max !st.acc_height (Network.inbox_word ctx i 1);
                      }
                done;
                !st
              end
            in
            match st.expected with
            | Some kids when st.received = kids && (not st.reported) && v <> root ->
                buf2.(0) <- st.acc_count;
                buf2.(1) <- st.acc_height;
                Network.send ctx st.parent buf2;
                { st with reported = true }
            | Some kids when st.received = kids && v = root ->
                { st with reported = true }
            | _ -> st
          end);
      finished = (fun st -> st.reported);
    }
  in
  let states, stats = Network.run ?max_rounds ?trace ?faults g algo in
  (states.(root).acc_count, states.(root).acc_height, stats)

let elect ?max_rounds ?trace ?faults g =
  Obs.Span.with_
    ~attrs:[ ("n", Obs.Sink.Int (Graph.n g)) ]
    "congest.leader.elect"
  @@ fun () ->
  let leader, s1 = elect_stage ?max_rounds ?trace ?faults g in
  (* stage 2: BFS tree from the leader (simulated) *)
  let bfs_states, s2 = Bfs.run ?max_rounds ?trace ?faults g ~root:leader in
  let parent_of = Array.map (fun st -> st.Bfs.parent) bfs_states in
  let depth_of = Array.map (fun st -> st.Bfs.dist) bfs_states in
  let n_estimate, ecc, s3 =
    census_stage ?max_rounds ?trace ?faults g parent_of depth_of leader
  in
  (* stage 4: broadcasting (n, ecc) back down costs another ecc rounds *)
  let s4 =
    {
      Network.empty_stats with
      Network.rounds = ecc;
      messages = Graph.n g - 1;
      words = 2 * (Graph.n g - 1);
    }
  in
  let stats = Network.add_stats (Network.add_stats s1 s2) (Network.add_stats s3 s4) in
  { leader; n_estimate; d_estimate = ecc; stats }
