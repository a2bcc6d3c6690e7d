let run_serial = Exec.run_serial
