(* Graceful-degradation measurement: compare a faulty run's output against
   a clean reference and summarize how far off it is.  Pure array
   comparisons — no dependency on the CONGEST engine, so both the engine
   and the bench can use them. *)

type dist_report = {
  nodes : int;
  compared : int;
  unreached : int;
  wrong : int;
  max_err : float;
  mean_err : float;
}

let fold_dists ~nodes ~skip ~reachable ~err =
  let compared = ref 0 and unreached = ref 0 and wrong = ref 0 in
  let max_err = ref 0.0 and sum_err = ref 0.0 in
  for v = 0 to nodes - 1 do
    if not (skip v) then begin
      incr compared;
      if not (reachable v) then incr unreached
      else begin
        let e = err v in
        if e > 0.0 then begin
          incr wrong;
          sum_err := !sum_err +. e;
          if e > !max_err then max_err := e
        end
      end
    end
  done;
  {
    nodes;
    compared = !compared;
    unreached = !unreached;
    wrong = !wrong;
    max_err = !max_err;
    mean_err =
      (if !compared = 0 then 0.0 else !sum_err /. float_of_int !compared);
  }

let int_dists ?(ignore = [||]) ~reference ~observed () =
  let nodes = Array.length reference in
  if Array.length observed <> nodes then
    invalid_arg "Degrade.int_dists: length mismatch";
  let skipped = Array.make nodes false in
  Array.iter (fun v -> skipped.(v) <- true) ignore;
  fold_dists ~nodes
    ~skip:(fun v -> skipped.(v) || reference.(v) < 0)
    ~reachable:(fun v -> observed.(v) >= 0)
    ~err:(fun v -> float_of_int (abs (observed.(v) - reference.(v))))

let float_dists ?(ignore = [||]) ~reference ~observed () =
  let nodes = Array.length reference in
  if Array.length observed <> nodes then
    invalid_arg "Degrade.float_dists: length mismatch";
  let skipped = Array.make nodes false in
  Array.iter (fun v -> skipped.(v) <- true) ignore;
  fold_dists ~nodes
    ~skip:(fun v -> skipped.(v) || reference.(v) = infinity)
    ~reachable:(fun v -> observed.(v) < infinity)
    ~err:(fun v -> abs_float (observed.(v) -. reference.(v)))

let exact r = r.unreached = 0 && r.wrong = 0

let weight_gap ~reference ~observed =
  if reference = 0.0 then if observed = 0.0 then 0.0 else infinity
  else (observed -. reference) /. abs_float reference

