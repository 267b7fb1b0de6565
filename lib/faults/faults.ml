(* Deterministic fault plans for the CONGEST engine (DESIGN.md section 11).

   A [plan] is pure data: seed + knobs + schedules.  [start] compiles it
   against a concrete graph into a [state] the engine queries on its send
   path.  All randomness comes from named streams derived from the plan
   seed ([Rng.named]), so a plan replays identically across runs, domains
   and [--jobs] settings, and never perturbs an algorithm's own seeded
   choices. *)

module Graph = Graphlib.Graph
module Rng = Rng
module Streams = Streams
module Degrade = Degrade

type link_failure = { u : int; v : int; from_round : int; to_round : int }
type crash = { node : int; at_round : int }

type plan = {
  seed : int;
  drop : float;
  delay : float;
  max_delay : int;
  links : link_failure list;
  crashes : crash list;
}

let none =
  { seed = 0; drop = 0.0; delay = 0.0; max_delay = 0; links = []; crashes = [] }

let is_zero p =
  p.drop = 0.0 && p.delay = 0.0 && p.links = [] && p.crashes = []

let make ?(drop = 0.0) ?(delay = 0.0) ?(max_delay = 1) ?(links = [])
    ?(crashes = []) seed =
  { seed; drop; delay; max_delay; links; crashes }

type state = {
  plan : plan;
  drop_st : Random.State.t;
  delay_st : Random.State.t;
  crash_at : int array; (* per node: first round it is dead, or -1 *)
  link_spans : (int * int) list array; (* per edge id: down intervals *)
  any_links : bool;
}

let start plan g =
  if not (plan.drop >= 0.0 && plan.drop < 1.0) then
    invalid_arg
      (Printf.sprintf "Faults.start: drop rate %g outside [0, 1)" plan.drop);
  if not (plan.delay >= 0.0 && plan.delay <= 1.0) then
    invalid_arg
      (Printf.sprintf "Faults.start: delay rate %g outside [0, 1]" plan.delay);
  if plan.delay > 0.0 && plan.max_delay < 1 then
    invalid_arg "Faults.start: delay rate > 0 needs max_delay >= 1";
  let n = Graph.n g and m = Graph.m g in
  let crash_at = Array.make n (-1) in
  List.iter
    (fun { node; at_round } ->
      if node < 0 || node >= n then
        invalid_arg
          (Printf.sprintf "Faults.start: crash node %d outside [0, %d)" node n);
      if at_round < 1 then
        invalid_arg
          (Printf.sprintf "Faults.start: crash of node %d at round %d < 1" node
             at_round);
      if crash_at.(node) < 0 || at_round < crash_at.(node) then
        crash_at.(node) <- at_round)
    plan.crashes;
  let link_spans = Array.make m [] in
  List.iter
    (fun { u; v; from_round; to_round } ->
      let e = Graph.find_edge_id g u v in
      if e < 0 then
        invalid_arg
          (Printf.sprintf "Faults.start: link failure on non-edge (%d, %d)" u v);
      if from_round < 1 || to_round < from_round then
        invalid_arg
          (Printf.sprintf
             "Faults.start: link (%d, %d) down for empty interval [%d, %d]" u v
             from_round to_round);
      link_spans.(e) <- (from_round, to_round) :: link_spans.(e))
    plan.links;
  {
    plan;
    drop_st = Rng.named ~seed:plan.seed Streams.faults_drop;
    delay_st = Rng.named ~seed:plan.seed Streams.faults_delay;
    crash_at;
    link_spans;
    any_links = plan.links <> [];
  }

let crash_round st v = st.crash_at.(v)
let crashed st ~node ~round = st.crash_at.(node) >= 0 && round >= st.crash_at.(node)

let link_down st ~edge ~round =
  st.any_links
  && List.exists (fun (a, b) -> round >= a && round <= b) st.link_spans.(edge)

let drop_roll st =
  st.plan.drop > 0.0 && Random.State.float st.drop_st 1.0 < st.plan.drop

let delay_roll st =
  if st.plan.delay <= 0.0 then 0
  else if Random.State.float st.delay_st 1.0 < st.plan.delay then
    1 + Random.State.int st.delay_st st.plan.max_delay
  else 0

let plan_fields p =
  [
    ("seed", Obs.Sink.Int p.seed);
    ("drop", Obs.Sink.Float p.drop);
    ("delay", Obs.Sink.Float p.delay);
    ("max_delay", Obs.Sink.Int p.max_delay);
    ("links", Obs.Sink.Int (List.length p.links));
    ("crashes", Obs.Sink.Int (List.length p.crashes));
  ]

