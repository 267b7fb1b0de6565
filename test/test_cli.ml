(* shortcuts-cli driven from outside as a subprocess: every bad flag value
   and every unreadable or malformed input file exits nonzero — never with
   cmdliner's 125 "internal error, uncaught exception" — and the message
   names the flag, or the file (with the line, for a malformed one). *)

let check = Alcotest.(check bool)
let here = Filename.dirname Sys.executable_name
let cli = Filename.concat here "../bin/shortcuts_cli.exe"

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

(* run the CLI with stdout and stderr merged; (exit code, output) *)
let run args =
  let out = Filename.temp_file "cli" ".out" in
  let code = Sys.command (Filename.quote_command cli args ~stdout:out ~stderr:out) in
  let s = read_file out in
  Sys.remove out;
  (code, s)

let with_file contents f =
  let path = Filename.temp_file "cli" ".txt" in
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* a 4-cycle in the native "n m" format *)
let cycle4 = "4 4\n0 1\n1 2\n2 3\n3 0\n"

let rejected args ~names =
  let code, out = run args in
  let what = String.concat " " args in
  check (what ^ ": exits nonzero") true (code <> 0);
  check (what ^ ": not an internal error") true
    (code <> 125 && not (contains out "internal error"));
  if not (contains out names) then
    Alcotest.failf "%s: output does not name %S:\n%s" what names out

let test_good_input_runs () =
  with_file cycle4 @@ fun g ->
  let code, out = run [ "info"; g ] in
  Alcotest.(check int) "info exits 0" 0 code;
  check "info reports n" true (contains out "n = 4")

let test_bad_flag_values () =
  rejected [ "serve-bench"; "--rate"; "0" ] ~names:"--rate";
  rejected [ "serve-bench"; "--batch"; "0" ] ~names:"--batch";
  rejected [ "serve-bench"; "--depth"; "0" ] ~names:"--depth";
  rejected [ "gen"; "nosuch" ] ~names:"nosuch";
  rejected [ "gen"; "grid"; "--width"; "0" ] ~names:"--width";
  rejected [ "gen"; "wheel"; "--size"; "2" ] ~names:"--size";
  with_file cycle4 @@ fun g ->
  rejected [ "quality"; g; "--parts=-3" ] ~names:"--parts";
  rejected [ "quality"; g; "--trials"; "0" ] ~names:"--trials";
  rejected [ "mincut"; g; "--trees"; "0" ] ~names:"--trees"

let test_bad_files () =
  let missing = Filename.concat (Filename.get_temp_dir_name ()) "cli-missing.txt" in
  rejected [ "info"; missing ] ~names:missing;
  rejected [ "report"; missing ] ~names:missing;
  with_file "3 2\n0 1\n1 b\n" (fun bad ->
      rejected [ "info"; bad ] ~names:(bad ^ ":3: not a vertex id"));
  with_file "2 1\n0 5\n" (fun bad ->
      rejected [ "quality"; bad ] ~names:(bad ^ ":2: vertex 5 out of range"));
  with_file "0 1\n1 x\n" (fun bad ->
      rejected [ "info"; "--edge-list"; bad ] ~names:(bad ^ ":2: not a vertex id"));
  with_file "4 2\n0 1\n2 3\n" (fun bad ->
      rejected [ "mst"; bad ] ~names:(bad ^ ": input graph is not connected"))

let () =
  Alcotest.run "cli"
    [
      ( "input",
        [
          Alcotest.test_case "good input runs" `Quick test_good_input_runs;
          Alcotest.test_case "bad flag values name the flag" `Quick
            test_bad_flag_values;
          Alcotest.test_case "bad files name the file and line" `Quick
            test_bad_files;
        ] );
    ]
